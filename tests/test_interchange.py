import dataclasses
import json
import math
import random
import re

import jsonschema
import numpy as np
import pytest

from hyra import interchange
from hyra.corpus import all_benchmarks, build, build_bouncing_ball
from hyra.errors import SchemaViolation
from hyra.interchange import bundle_to_dict, read_json, write_json
from hyra.spaceex import emit_spaceex, parse_spaceex

from support import (
    BAD_VALUES,
    CORPUS_DIR,
    GENERATED_SEEDS,
    SCHEMA_PATH,
    bad_value_document,
    generated_bundle,
    spelling_bundle,
)


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_write_read_identity_on_canonical_text(bench):
    bundle = build(bench)
    text = write_json(bundle)
    again = read_json(text)
    assert again == bundle
    assert write_json(again) == text


_WRITER_BUNDLES = {
    **{f"spelling-fixpoint-{flag}": lambda flag=flag: spelling_bundle(flag) for flag in (False, True)},
    **{b.value: lambda b=b: read_json((CORPUS_DIR / b.value / "bundle.json").read_text()) for b in all_benchmarks()},
    "ascii-name-with-del": lambda: read_json((CORPUS_DIR / "tank3" / "bundle.json").read_text().replace(
        '"name": "tank_3"', '"name": "tank\\u007f3"')),
    **{f"generated-{seed}": lambda seed=seed: generated_bundle(seed) for seed in GENERATED_SEEDS},
}


@pytest.mark.parametrize("name", list(_WRITER_BUNDLES))
def test_write_json_is_the_text_of_json_dumps(name):
    bundle = _WRITER_BUNDLES[name]()
    assert write_json(bundle) == json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


def test_the_spelling_bundle_reads_back_from_its_ascii_text():
    bundle = spelling_bundle()
    text = write_json(bundle)
    assert text.isascii()
    for spelling in ("1e-05", "-2.5e-07", "1e-09", "9.99e-05", "0.0001", "1e+16", "-3e+22", "10.00001", "-20.00003",
                     "1.7976931348623157e+308", "5e-324", "-0.0", "2.0", "1000000000000000.0",
                     '"max_jumps": 7', '"fixpoint": false', '"forbidden": null', '"label": null',
                     "\\u00e9", "\\ud83d\\ude00", "\\u0001", "\\u007f", "\\t", '\\"\\\\ null'):
        assert spelling in text, spelling
    assert read_json(text) == bundle
    assert write_json(read_json(text)) == text


def with_non_finite(bundle, value: float):
    """``bundle`` (the ball) with its constant ``c`` and one entry of its first reset's ``c`` term set to
    ``value``; ``read_json`` rejects such a bundle, so it is built in the IR."""
    automaton = bundle.automaton
    reset = automaton.transitions[0].reset
    term = reset.matrix_terms["c"].copy()
    term[0, 0] = value
    first = dataclasses.replace(automaton.transitions[0], reset=dataclasses.replace(reset, matrix_terms={"c": term}))
    table = dataclasses.replace(automaton.vars, constants={"c": value})
    automaton = dataclasses.replace(automaton, vars=table, transitions=(first, *automaton.transitions[1:]))
    return dataclasses.replace(bundle, automaton=automaton)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_write_json_spells_non_finite_numbers_as_json_dumps_does(value):
    data = _ball_data()
    data["transitions"][1]["label"] = None
    for label, location in (("hit", "always"), ("null", "null,")):  # a "null" in a string is no null token
        data["transitions"][0]["label"] = label
        data["locations"][0]["name"] = data["initial"]["location"] = location
        for tr in data["transitions"]:
            tr["source"] = tr["target"] = location
        bundle = with_non_finite(read_json(json.dumps(data)), value)
        text = write_json(bundle)
        assert text == json.dumps(bundle_to_dict(bundle), indent=2) + "\n"
        assert text.count(json.dumps(value)) == 2


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


def _ball_data() -> dict:
    return json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())


def test_integers_read_as_floats():
    data = _ball_data()
    data["settings"].update(horizon=2**70, step=1)
    data["variables"]["constants"]["c"] = 2**70
    data["settings"]["forbidden"][0]["bound_terms"] = {"c": 3}
    bundle = read_json(json.dumps(data))
    scalars = (bundle.settings.horizon, bundle.settings.step, bundle.automaton.vars.constants["c"],
               bundle.settings.forbidden.constraints[0].bound_terms["c"])
    assert scalars == (2**70, 1, 2**70, 3)
    assert {type(v) for v in scalars} == {float}


def test_all_zero_symbolic_terms_read_as_no_terms():
    data = _ball_data()
    data["transitions"][0]["reset"] = {"matrix": np.eye(4).tolist(), "offset": [0.0] * 4}
    plain = read_json(json.dumps(data))
    zeros = np.zeros((4, 4)).tolist()
    data["transitions"][0]["reset"].update(matrix_terms={"c": zeros}, offset_terms={"c": [0.0] * 4})
    data["locations"][0]["flow"].update(a_terms={"c": zeros}, b_terms={"c": [[]] * 4}, c_terms={"c": [-0.0] * 4})
    data["locations"][0]["invariant"][0].update(coeff_terms={"c": [0.0] * 4}, bound_terms={"c": 0})
    data["settings"]["forbidden"][0]["bound_terms"] = {"c": 0.0}
    bundle = read_json(json.dumps(data))
    assert bundle == plain
    assert bundle.automaton.transitions[0].reset.is_identity
    assert parse_spaceex(emit_spaceex(bundle.automaton)) == bundle.automaton
    assert write_json(bundle) == write_json(plain)  # the zero terms' keys are left out


@pytest.mark.parametrize("edit", [
    lambda d: d["settings"].update(horizon=10**400),
    lambda d: d["variables"]["constants"].update(c=10**400),
    lambda d: d["settings"]["forbidden"][0].update(bound_terms={"c": 10**400}),
], ids=["horizon", "constant", "bound-term"])
def test_an_integer_too_large_for_a_float_is_rejected(edit):
    data = _ball_data()
    edit(data)
    with pytest.raises(SchemaViolation, match="int too large to convert to float"):
        read_json(json.dumps(data))


def unwritable_document(case: str) -> str:
    """The ball's bundle with a value ``write_json`` cannot write: a ``max_jumps``
    past 64 bits, or a lone surrogate in the name, as an escape or as a character."""
    data = _ball_data()
    if case == "max-jumps":
        data["settings"]["max_jumps"] = 2**70
        return json.dumps(data, indent=2)
    data["name"] = "\ud800x"
    return json.dumps(data, indent=2, ensure_ascii=case == "surrogate-escape")


@pytest.mark.parametrize("case, message", [
    ("max-jumps", "bundle document rejected: max_jumps must be below 2**64, not 1180591620717411303424"),
    ("surrogate-escape", "bundle document rejected: '\\ud800x' holds a lone surrogate, which is not Unicode text"),
    ("surrogate-character", "bundle document rejected: '\\ud800x' holds a lone surrogate, which is not Unicode text"),
], ids=["max-jumps", "surrogate-escape", "surrogate-character"])
def test_values_write_json_cannot_write_are_rejected_on_read(case, message):
    text = unwritable_document(case)
    assert ("\\ud800" in text) == (case == "surrogate-escape")
    with pytest.raises(SchemaViolation) as error:
        read_json(text)
    assert str(error.value) == message


@pytest.mark.parametrize("edit", [
    lambda d: d["settings"].update(max_jumps=2**64 - 1),
    lambda d: d.update(name="pair \U0001f600 and \u00e9"),
    lambda d: d["variables"]["constants"].update({"\U0001f600": 1.0}),
], ids=["max-jumps", "surrogate-pair", "astral-key"])
def test_the_largest_max_jumps_and_surrogate_pairs_read_and_write_back(edit):
    data = _ball_data()
    edit(data)
    for text in (json.dumps(data, indent=2), json.dumps(data, indent=2, ensure_ascii=False)):
        bundle = read_json(text)
        assert read_json(write_json(bundle)) == bundle


@pytest.mark.parametrize("key", ["name", "constant", "location", "label"])
def test_a_lone_surrogate_anywhere_is_rejected(key):
    data = _ball_data()
    if key == "constant":
        data["variables"]["constants"]["\udc00"] = data["variables"]["constants"].pop("c")
    elif key == "location":
        data["locations"][0]["name"] = "\udfff"
    else:
        (data if key == "name" else data["transitions"][0])[key] = "a\udbff"
    with pytest.raises(SchemaViolation, match="holds a lone surrogate"):
        read_json(json.dumps(data))


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("where", ["constant", "terms"])
def test_non_finite_constants_and_terms_are_rejected_on_read(where, value):
    data = _ball_data()
    if where == "constant":
        data["variables"]["constants"]["c"] = float(value.replace("Infinity", "inf"))
        defect = "[non-finite] constant 'c' is not finite"
    else:
        data["transitions"][0]["reset"]["matrix_terms"]["c"][1][1] = float(value.replace("Infinity", "inf"))
        defect = "[non-finite] transition #0 (always->always): reset term not finite"
    text = json.dumps(data, indent=2)
    assert value in text
    with pytest.raises(SchemaViolation) as error:
        read_json(text)
    assert str(error.value) == "bundle does not validate: " + defect


# -- read_json against plain jsonschema.validate plus _build_bundle ----------

_SHIPPED = json.loads(SCHEMA_PATH.read_text())
# jsonschema.validate(data, _SHIPPED) without its meta-schema check on every call
_FULL = jsonschema.validators.validator_for(_SHIPPED)(_SHIPPED)
_SWAPS = ["text", None, True, False, 0, 2.5, -1, {}, [], [1.0], [[1.0]], {"k": [1.0]}]


def _plain_read(text: str) -> str:
    """What reading ``text`` gives with the full shipped schema walked by jsonschema:
    the canonical text of the bundle, or the rejection message."""
    data = json.loads(text)
    error = jsonschema.exceptions.best_match(_FULL.iter_errors(data))
    if error is not None:
        return "bundle document rejected: " + error.message
    try:
        return write_json(interchange._build_bundle(data))
    except SchemaViolation as exc:
        return str(exc)
    except (ValueError, OverflowError) as exc:
        return f"bundle document rejected: {exc}"


def _ours(text: str) -> str:
    try:
        return write_json(read_json(text))
    except SchemaViolation as exc:
        return str(exc)


def _nodes(value, out):
    """Every (container, key) slot under ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _nodes(child, out)
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _mutate(data: dict, rng: random.Random) -> None:
    """One seeded single-field edit: a type swap, a boolean or out-of-range
    number in a number array, a ragged row, extra nesting, or an empty list."""
    slots = _nodes(data, [])
    numbers = [(c, k) for c, k in slots if isinstance(c, list) and _is_number(c[k])]
    rows = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k] and _is_number(c[k][0])]
    kind = rng.choice(["swap", "swap", "bool", "mixed", "ragged", "nest", "empty", "huge", "nan"])
    if kind in ("bool", "huge", "nan"):
        container, key = rng.choice(numbers)
        container[key] = {"bool": rng.choice([True, False]), "huge": 2**70, "nan": math.nan}[kind]
    elif kind == "mixed":
        container, key = rng.choice(rows)
        container[key] = [*container[key], True]
    elif kind == "ragged":
        container, key = rng.choice(rows)
        container[key] = container[key][:-1] if rng.random() < 0.5 else [*container[key], 1.0]
    else:
        container, key = rng.choice(slots)
        old = container[key]
        container[key] = {"swap": rng.choice(_SWAPS), "nest": [old], "empty": []}[kind]


# Edits of the ball's bundle at the number arrays' edges, pinned beside the seeded ones.
_EDGES = [
    lambda d: d["transitions"][0]["reset"]["matrix_terms"].update(c=2.5),
    lambda d: d["transitions"][0]["reset"]["matrix_terms"].update(c=[1.0, 0.0]),
    lambda d: d["locations"][0]["flow"]["a"].__setitem__(0, [0.0, 1.0, 0.0, True]),
    lambda d: d["locations"][0]["flow"]["a"].__setitem__(1, {"0": 1.0}),
    lambda d: d["locations"][0]["flow"]["a"][2].pop(),
    lambda d: d["locations"][0]["flow"].update(b=[]),
    lambda d: d["locations"][0]["flow"].update(c=[0.0, 2**70, 0.0, -(2**70)]),
    lambda d: d["settings"]["forbidden"][0].update(coeff_terms={"c": [False, 0, 0, 0]}),
]


def _documents():
    yield from (bad_value_document(case) for case in sorted(BAD_VALUES))
    for edit in _EDGES:
        data = _ball_data()
        edit(data)
        yield json.dumps(data)
    rng = random.Random(11)
    for model, count in (("bouncing-ball", 150), ("linswitch4", 100), ("tank3", 10), ("platoon6", 10)):
        text = (CORPUS_DIR / model / "bundle.json").read_text()
        yield text
        for _ in range(count):
            data = json.loads(text)
            _mutate(data, rng)
            yield json.dumps(data)


def test_read_json_matches_the_full_schema_on_mutated_bundles():
    accepted = set()
    for text in _documents():
        want = _plain_read(text)
        assert _ours(text) == want, text
        accepted.add(want.startswith("{"))
    assert accepted == {True, False}


# -- the compiled predicate --------------------------------------------------

_DRAFT = jsonschema.validators.validator_for(_SHIPPED)


class _List(list):
    pass


# (schema, documents the predicate accepts, documents it rejects)
_KEYWORD_CASES = {
    "type-name": ({"type": "string"}, ["a", ""], [1, None, ["a"]]),
    "type-list": ({"type": ["string", "null"]}, ["a", None], [1, False, {}]),
    "type-number": ({"type": "number"}, [0, -3, 2.5, 2**70], [True, "1", None, [1.0]]),
    "type-integer": ({"type": "integer"}, [0, 7], [False, 2.5, "7"]),
    "type-boolean": ({"type": "boolean"}, [True, False], [0, 1, None]),
    "type-object": ({"type": "object"}, [{}, {"a": 1}], [[], "a"]),
    "type-array": ({"type": "array"}, [[], [1, "a"]], [{}, "a"]),
    "const": ({"const": 1}, [1], [2, True, "1", None]),
    "enum": ({"enum": ["<=", "<"]}, ["<=", "<"], ["=<", ">", 1, None]),
    "required": ({"required": ["a", "b"]}, [{"a": 1, "b": 2}, {"a": 1, "b": 2, "c": 3}], [{"a": 1}, {}]),
    "properties": ({"properties": {"a": {"type": "string"}}}, [{"a": "x"}, {"b": 1}, {}],
                   [{"a": 1}, {"a": None, "b": 1}]),
    "additional-false": ({"properties": {"a": {}}, "additionalProperties": False}, [{"a": 1}, {}],
                         [{"b": 1}, {"a": 1, "b": 2}]),
    "additional-schema": ({"properties": {"a": {}}, "additionalProperties": {"type": "number"}},
                          [{"a": "x", "k": 1.5}, {}], [{"k": "x"}, {"a": 1, "k": True}]),
    "items": ({"items": {"type": "number"}}, [[], [1, 2.5]], [[1, True], ["1"], [None]]),
    "items-schema": ({"items": {"items": {"type": "number"}}}, [[], [[1], []]], [[[True]], [1], [[1], "a"]]),
    "min-items": ({"minItems": 2}, [[1, 2], [1, 2, 3]], [[], [1]]),
    "max-items": ({"maxItems": 2}, [[], [1, 2]], [[1, 2, 3]]),
    "minimum": ({"minimum": 0}, [0, 0.0, 3, 2**70], [-1, -1e-300, -(2**70)]),
    "exclusive-minimum": ({"exclusiveMinimum": 0}, [1e-300, 1, 2**70], [0, 0.0, -1]),
    "one-of": ({"oneOf": [{"type": "null"}, {"type": "array", "items": {"type": "string"}}]},
               [None, [], ["a"]], ["x", [1], {}, False]),
    "ref": ({"$ref": "#/$defs/name"}, ["a"], [1, None]),
}
_DEFS = {"name": {"type": "string"}}
# documents jsonschema accepts and the predicate is too strict for
_STRICTER = [
    ({"type": "integer"}, 2.0),
    ({"const": 1}, 1.0),
    ({"enum": [1]}, 1.0),
    ({"type": "array"}, _List([1])),
    ({"items": {"type": "number"}}, [np.float64(1.0)]),
    ({"type": "number"}, np.float64(1.0)),
    ({"exclusiveMinimum": 0}, math.nan),
]


@pytest.mark.parametrize("case", sorted(_KEYWORD_CASES))
def test_compiled_keyword_accepts_and_rejects(case):
    schema, accepted, rejected = _KEYWORD_CASES[case]
    accepts = interchange._compile(schema, _DEFS)
    full = _DRAFT({**schema, "$defs": _DEFS})
    assert [accepts(doc) for doc in accepted] == [True] * len(accepted)
    assert [accepts(doc) for doc in rejected] == [False] * len(rejected)
    assert all(full.is_valid(doc) for doc in accepted)


@pytest.mark.parametrize("schema, doc", _STRICTER, ids=lambda v: type(v).__name__)
def test_compiled_predicate_is_stricter_than_jsonschema(schema, doc):
    assert _DRAFT(schema).is_valid(doc)
    assert not interchange._compile(schema, {})(doc)


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^a"},
    {"properties": {"a": {"type": "number", "maximum": 1}}},
    {"items": {"anyOf": [{"type": "string"}]}},
    {"$defs": {"v": {"type": "string", "format": "date"}}, "$ref": "#/$defs/v"},
], ids=["pattern", "nested-maximum", "items-anyOf", "ref-format"])
def test_a_keyword_without_a_compiled_check_raises(schema):
    with pytest.raises(ValueError, match="no compiled check for schema keywords"):
        interchange._compile(schema, schema.get("$defs", {}))


@pytest.mark.parametrize("schema", [
    {"oneOf": [{"type": "number"}, {"type": "integer"}]},
    {"oneOf": [{"type": ["string", "null"]}, {"type": "null"}]},
], ids=["number-integer", "null-twice"])
def test_one_of_with_overlapping_branch_types_raises(schema):
    with pytest.raises(ValueError, match="disjoint"):
        interchange._compile(schema, {})


def test_a_list_const_raises():
    with pytest.raises(TypeError):
        interchange._compile({"const": [1]}, {})


@pytest.mark.parametrize("model", ["bouncing-ball", "linswitch4", "platoon6", "tank3"])
def test_compiled_schema_accepts_every_corpus_bundle(model):
    data = json.loads((CORPUS_DIR / model / "bundle.json").read_text())
    assert interchange._compile(_SHIPPED, _SHIPPED["$defs"])(data)


def test_corpus_reads_skip_the_jsonschema_walk(monkeypatch):
    walks = []
    real = _DRAFT.iter_errors

    def iter_errors(self, instance, *args, **kwargs):
        if instance is not interchange._schema():  # not the meta-schema check
            walks.append(instance)
        return real(self, instance, *args, **kwargs)

    monkeypatch.setattr(interchange._ShippedSchema, "validator", None)
    monkeypatch.setattr(_DRAFT, "iter_errors", iter_errors)
    for model in ("bouncing-ball", "linswitch4", "platoon6", "tank3"):
        read_json((CORPUS_DIR / model / "bundle.json").read_text())
    assert walks == []
    with pytest.raises(SchemaViolation):
        read_json(json.dumps(_invalid_documents()["wrong-type"]))
    assert len(walks) == 1


def test_whatever_the_compiled_schema_accepts_the_full_schema_accepts():
    accepts = interchange._compile(_SHIPPED, _SHIPPED["$defs"])
    verdicts = []
    for text in _documents():
        data = json.loads(text)
        verdicts.append(accepts(data))
        if verdicts[-1]:
            assert _FULL.is_valid(data), text
    assert set(verdicts) == {True, False}
