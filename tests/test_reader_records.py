"""The records the readers build, against those of the public constructors.

Each IR record that converts a field has one constructor, which the
readers go through too. For the XML+cfg and the JSON reading of every corpus
model and generated symbolic automaton, the IR must equal, bit for bit and
key order for key order, the IR the public constructors rebuild from its
field values, and every array it holds must be read-only. The constructors
themselves normalize the same way however a record is built: positionally,
by keyword or by ``dataclasses.replace``.
"""

import dataclasses

import numpy as np
import pytest

from hyra import corpus
from hyra.config import emit_config, parse_config
from hyra.interchange import read_json, write_json
from hyra.ir import (AffineDynamics, Condition, HybridAutomaton, LinearConstraint, Location, ModelBundle,
                     ResetMap, Transition, VariableTable)
from hyra.spaceex import emit_spaceex, parse_spaceex
from support import CORPUS_DIR, GENERATED_SEEDS, generated_bundle

MODELS = [bench.value for bench in corpus.all_benchmarks()]


def public(value):
    """``value`` rebuilt through the public constructors, record by record, from its field values."""
    if isinstance(value, tuple):
        return tuple(map(public, value))
    if dataclasses.is_dataclass(value):
        return type(value)(*(public(getattr(value, f.name)) for f in dataclasses.fields(value)))
    return value


def bits(value):
    """Every bit of a value: array dtypes, shapes and bytes, float bits, dict keys in order, record fields."""
    if isinstance(value, np.ndarray):
        return "array", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return "float", value.hex()
    if isinstance(value, dict):
        return "dict", [(key, bits(item)) for key, item in value.items()]
    if isinstance(value, (tuple, list)):
        return type(value).__name__, [bits(item) for item in value]
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [(f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    return type(value).__name__, value


def arrays(value):
    """Every array a value holds, in its records, tuples and dicts."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from arrays(getattr(value, f.name))


def term_dicts(value):
    """Every ``*_terms`` field of the records a value holds."""
    if isinstance(value, (tuple, list)):
        for item in value:
            yield from term_dicts(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            field = getattr(value, f.name)
            if f.name.endswith("_terms"):
                yield field
            else:
                yield from term_dicts(field)


def _cfg(bundle) -> str:
    return emit_config(bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name)


def readings():
    """(label, XML+cfg text pair, JSON text) of each corpus model and generated automaton."""
    for model in MODELS:
        folder = CORPUS_DIR / model
        texts = ((folder / "model.xml").read_text(), (folder / "config.cfg").read_text())
        yield model, texts, (folder / "bundle.json").read_text()
    for seed in GENERATED_SEEDS:
        bundle = generated_bundle(seed)
        yield f"gen{seed}", (emit_spaceex(bundle.automaton), _cfg(bundle)), write_json(bundle)


READINGS = {label: (xml_cfg, json_text) for label, xml_cfg, json_text in readings()}


def read_xml_cfg(xml: str, cfg: str) -> ModelBundle:
    automaton = parse_spaceex(xml)
    parsed = parse_config(cfg, automaton.vars)
    return ModelBundle(automaton, parsed.settings, parsed.initial)


@pytest.mark.parametrize("label", sorted(READINGS))
def test_reader_records_equal_the_public_constructors_and_hold_read_only_arrays(label):
    (xml, cfg), json_text = READINGS[label]
    for bundle in (read_xml_cfg(xml, cfg), read_json(json_text)):
        again = public(bundle)
        assert bundle == again
        assert bits(bundle) == bits(again)
        held = list(arrays(bundle))
        assert held and not any(a.flags.writeable for a in held)
        assert all(a.dtype == np.float64 for a in held)
        for terms in term_dicts(bundle):  # normalized: in name order, no all-zero term
            assert list(terms) == sorted(terms) and all(np.any(v) for v in terms.values())


@pytest.mark.parametrize("label", sorted(READINGS))
def test_assignment_free_transitions_of_one_parse_share_one_frozen_identity(label):
    (xml, _), _ = READINGS[label]
    automaton = parse_spaceex(xml)
    resets = [tr.reset for tr in automaton.transitions]
    shared = [r for r in resets if r.is_identity]
    assert all(r is shared[0] for r in shared)
    for reset in shared:
        assert not (reset.r_matrix.flags.writeable or reset.r_offset.flags.writeable)
        assert bits(reset) == bits(ResetMap(np.eye(automaton.vars.n), np.zeros(automaton.vars.n)))
    assert len(shared) == sum("<assignment>" not in part for part in xml.split("<transition ")[1:])


def test_the_corpus_readings_share_identities():
    assert len({id(tr.reset) for tr in parse_spaceex((CORPUS_DIR / "tank3" / "model.xml").read_text()).transitions}) == 1


def test_is_identity_is_decided_once_per_record():
    identity, scaled = ResetMap.identity(2), ResetMap([[2.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
    for reset, want in ((identity, True), (scaled, False)):
        assert reset.is_identity is want
        assert reset.__dict__["is_identity"] is want
        assert reset.is_identity is want
    assert not identity.r_matrix.flags.writeable
    assert not ResetMap(np.eye(2), np.zeros(2), {"k": np.ones((2, 2))}).is_identity


def test_public_constructors_copy_the_callers_arrays():
    coeffs = np.array([1.0, 2.0])
    con = LinearConstraint(coeffs, "<=", 1.0, {"k": coeffs})
    assert con.coeffs is not coeffs and con.coeff_terms["k"] is not coeffs
    assert coeffs.flags.writeable and not con.coeffs.flags.writeable
    coeffs[0] = 5.0
    assert con.coeffs.tolist() == [1.0, 2.0] and con.coeff_terms["k"].tolist() == [1.0, 2.0]
    matrix = np.eye(2)
    reset = ResetMap(matrix, np.zeros(2))
    matrix[0, 0] = 3.0
    assert reset.is_identity and matrix.flags.writeable


def raw_fields():
    """The fields of each record that converts one, as a caller may hand them: lists, ints,
    term dicts out of name order with all-zero terms, input ranges as pairs."""
    reset = ([[1, 0], [0, -1]], [0, 0], {"k": [[0, 0], [0, 1]], "j": [[0, 0], [0, 0]]}, {"b": [1, 0], "a": [0, 1]})
    location = Location("fall", Condition(), AffineDynamics.zero(2, 1))
    return {
        VariableTable: (["x", "v"], ["u"], {"k": 2, "c": 1}),
        LinearConstraint: ([1, 0], "<=", 3, {"k": [0, 1], "j": [0, 0]}, {"k": 2, "j": 0, "a": -1}),
        Condition: ([LinearConstraint([1, 0], ">=", 0)],),
        AffineDynamics: ([[0, 1], [0, 0]], [[0], [1]], [0, -9.8], {"k": [[0, 0], [1, 0]], "j": [[0, 0], [0, 0]]},
                         {"z": [[0], [0]]}, {"k": [1, 0], "a": [0, 2]}),
        ResetMap: reset,
        HybridAutomaton: ("ball", VariableTable(("x", "v"), ("u",)), [location],
                          [Transition("fall", "fall", Condition(), ResetMap(*reset))], [("u", (0, 1))]),
    }


def assert_normalized(record):
    """Every array read-only float64, every number a float, every sequence a tuple, every ``*_terms`` dict
    in name order with no all-zero term."""
    assert not any(a.flags.writeable for a in arrays(record))
    assert all(a.dtype == np.float64 for a in arrays(record))
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        assert not isinstance(value, (list, int)), f.name
        if f.name.endswith("_terms"):
            assert list(value) == sorted(value) and all(np.any(item) for item in value.values()), f.name
        if isinstance(value, dict):
            numbers = [v for item in value.values() for v in (item if isinstance(item, tuple) else [item])]
            assert all(isinstance(v, np.ndarray) or type(v) is float for v in numbers), f.name


@pytest.mark.parametrize("cls", list(raw_fields()), ids=lambda cls: cls.__name__)
def test_positional_keyword_and_replace_construction_normalize_alike(cls):
    raw = raw_fields()[cls]
    names = [f.name for f in dataclasses.fields(cls)]
    positional = cls(*raw)
    assert_normalized(positional)
    keyword = cls(**dict(zip(names, raw)))
    assert keyword == positional and bits(keyword) == bits(positional)
    replaced = dataclasses.replace(positional, **dict(zip(names, raw)))
    assert replaced == positional and bits(replaced) == bits(positional)
    for name, value in zip(names, raw):  # one field at a time, from the normalized record
        one = dataclasses.replace(positional, **{name: value})
        assert_normalized(one)
        assert bits(one) == bits(positional), name


def test_replace_drops_all_zero_terms_and_converts_bounds():
    con = LinearConstraint([1.0, 0.0], "<=", 1.0)
    replaced = dataclasses.replace(con, coeffs=[0, 2], bound=4, coeff_terms={"k": [0, 0], "b": [1, 0]},
                                   bound_terms={"z": 1, "a": 0})
    assert replaced.coeffs.tolist() == [0.0, 2.0] and not replaced.coeffs.flags.writeable
    assert type(replaced.bound) is float and replaced.bound == 4.0
    assert list(replaced.coeff_terms) == ["b"] and replaced.bound_terms == {"z": 1.0}
    assert type(replaced.bound_terms["z"]) is float


@pytest.mark.parametrize("build", [
    lambda: LinearConstraint([1.0], "=<", 0.0),
    lambda: LinearConstraint(coeffs=[1.0], relation="!=", bound=0.0),
    lambda: dataclasses.replace(LinearConstraint([1.0], "<=", 0.0), relation="="),
], ids=["positional", "keyword", "replace"])
def test_an_unknown_relation_still_raises(build):
    with pytest.raises(ValueError, match="unknown relation"):
        build()
