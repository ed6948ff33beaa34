import json
import re

import jsonschema
import pytest

from hyra import interchange
from hyra.corpus import all_benchmarks, build, build_bouncing_ball
from hyra.errors import SchemaViolation
from hyra.interchange import bundle_to_dict, read_json, write_json

from support import CORPUS_DIR, SCHEMA_PATH, bad_value_document


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_write_read_identity_on_canonical_text(bench):
    bundle = build(bench)
    text = write_json(bundle)
    again = read_json(text)
    assert again == bundle
    assert write_json(again) == text


def test_ball_json_lists_the_restitution_constant():
    data = bundle_to_dict(build_bouncing_ball())
    assert data["variables"]["constants"] == {"c": 0.75}
    # the symbolic reset overlay is preserved
    reset = data["transitions"][0]["reset"]
    assert reset["matrix_terms"]["c"][1][1] == -1.0


def test_corrupted_field_type_is_a_schema_violation():
    data = bundle_to_dict(build_bouncing_ball())
    data["settings"]["horizon"] = "forty"
    with pytest.raises(SchemaViolation):
        read_json(json.dumps(data))


def test_missing_section_is_a_schema_violation():
    data = bundle_to_dict(build_bouncing_ball())
    del data["locations"]
    with pytest.raises(SchemaViolation):
        read_json(json.dumps(data))


def test_not_json_at_all():
    with pytest.raises(SchemaViolation):
        read_json("also not json {")


def test_inconsistent_dimensions_rejected_after_schema():
    data = bundle_to_dict(build_bouncing_ball())
    data["locations"][0]["flow"]["c"] = [0.0]  # wrong length
    with pytest.raises(SchemaViolation):
        read_json(json.dumps(data))


def test_forbidden_set_with_an_undeclared_constant_is_rejected():
    data = bundle_to_dict(build_bouncing_ball())
    data["settings"]["forbidden"][0]["bound_terms"] = {"zz": 1.0}
    with pytest.raises(SchemaViolation, match="zz"):
        read_json(json.dumps(data))


def _invalid_documents():
    def edit(change):
        data = bundle_to_dict(build_bouncing_ball())
        change(data)
        return data

    return {
        "missing-key": edit(lambda d: d["settings"].pop("max_jumps")),
        "wrong-type": edit(lambda d: d["settings"].update(horizon="forty")),
        "extra-property": edit(lambda d: d["initial"].update(colour="red")),
        "bad-relation": edit(lambda d: d["locations"][0]["invariant"][0].update(relation="=<")),
        "zero-step": edit(lambda d: d["settings"].update(step=0)),
        "forbidden-one-of": edit(
            lambda d: d["settings"].update(forbidden=[{"coeffs": [1.0, 0.0], "relation": "<="}])
        ),
    }


@pytest.mark.parametrize("case", sorted(_invalid_documents()))
def test_schema_violation_message_is_the_plain_jsonschema_message(case):
    data = _invalid_documents()[case]
    with pytest.raises(jsonschema.ValidationError) as plain:
        jsonschema.validate(data, json.loads(SCHEMA_PATH.read_text()))
    with pytest.raises(SchemaViolation) as ours:
        read_json(json.dumps(data))
    assert str(ours.value) == "bundle document rejected: " + plain.value.message


def test_meta_schema_check_runs_once_and_every_read_validates(monkeypatch):
    schema = interchange._schema()
    kind = jsonschema.validators.validator_for(schema)
    checks, validations = [], []
    real_check, real_validate = kind.check_schema, jsonschema.validate

    def check_schema(cls, schema, **kwargs):
        checks.append(schema)
        return real_check(schema, **kwargs)

    def validate(*args, **kwargs):
        validations.append(args[0])
        return real_validate(*args, **kwargs)

    monkeypatch.setattr(interchange._ShippedSchema, "validator", None)
    monkeypatch.setattr(kind, "check_schema", classmethod(check_schema))
    monkeypatch.setattr(jsonschema, "validate", validate)
    texts = [(CORPUS_DIR / m / "bundle.json").read_text() for m in ("tank3", "bouncing-ball")]
    for text in texts * 2:
        read_json(text)
    with pytest.raises(SchemaViolation):
        read_json(json.dumps(_invalid_documents()["wrong-type"]))
    assert checks == [schema]
    assert len(validations) == 5


@pytest.mark.parametrize(
    "case, message",
    [
        ("infinite-bound", "hi must have finite entries"),
        ("empty-box", "box has lo > hi"),
        ("nan-step", "need 0 < step <= horizon"),
        ("infinite-horizon", "horizon must be finite"),
        ("unknown-location", "initial location 'nowhere' not in model"),
    ],
)
def test_values_the_ir_rejects_are_schema_violations(case, message):
    with pytest.raises(SchemaViolation, match=re.escape(message)):
        read_json(bad_value_document(case))
