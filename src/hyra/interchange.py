"""Canonical JSON interchange form for model bundles.

``write_json`` produces a canonical text (fixed key order, shortest
round-trip floats in ``repr`` style, ASCII-escaped strings) in one
``orjson`` pass; ``read_json`` validates against the shipped schema
(data/bundle.schema.json) before building IR objects, so malformed
documents fail with SchemaViolation instead of deep attribute errors.

A read checks the document once. When the validator is built, the shipped
schema is also compiled (``_compile``) into one plain-Python predicate that
takes exact types (a bool is no number, a float no integer) and raises on a
keyword it has no check for. A document the predicate accepts needs no
``jsonschema`` walk; any other is walked with the full schema, which
decides and words the message, so the accepted documents and every
rejection message are those of plain ``jsonschema.validate``.

Values the schema admits but the IR rejects (non-finite or empty initial
boxes, a NaN step, non-finite constants or symbolic terms, an initial
location the model lacks, a forbidden set that ``ir.validate`` rejects,
such as one over the wrong number of variables or with a NaN bound,
output variables that are not state variables, an integer too large for
a float, a ``max_jumps`` of 2**64 or more) fail the same way, and
so does a string with a lone surrogate code point: ``write_json`` could not
write either of the last two back.
The shipped schema itself is checked against its meta-schema once per
process, on the first read; every read then validates with the predicate
and validator built at that point.
write_json(read_json(s)) == s holds for any canonical s.
"""

from __future__ import annotations

import functools
import json
import math
import re
from importlib import resources
from types import SimpleNamespace

import jsonschema
import numpy as np
import orjson

from .errors import BundleDefects, SchemaViolation
from .ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    LinearConstraint,
    Location,
    ModelBundle,
    ReachSettings,
    ResetMap,
    Transition,
    VariableTable,
    validate,
)
from .sets import Box


@functools.cache
def _schema() -> dict:
    return json.loads(resources.files("hyra.data").joinpath("bundle.schema.json").read_text(encoding="utf-8"))


# The Python types each schema type name admits in the compiled check: exact
# types, so a bool is no number, a float no integer and a list subclass no array.
_TYPES = {"null": {type(None)}, "boolean": {bool}, "integer": {int}, "number": {int, float},
          "string": {str}, "array": {list}, "object": {dict}}
_COMPILED = {"type", "const", "enum", "required", "properties", "additionalProperties", "items",
             "minItems", "maxItems", "minimum", "exclusiveMinimum", "oneOf", "$ref"}
_ANNOTATIONS = {"$schema", "title", "description", "$defs"}


def _types(node: dict, defs: dict) -> set:
    while "$ref" in node and "type" not in node:
        node = defs[node["$ref"].removeprefix("#/$defs/")]
    names = node["type"]
    return set().union(*(_TYPES[name] for name in ([names] if isinstance(names, str) else names)))


def _compile(node, defs: dict):
    """A predicate that accepts only what the schema ``node`` accepts and may
    reject more (a float 1.0 for ``const`` 1, a NaN). It raises on a keyword it
    has no check for, and on a list or object ``const`` or ``enum`` value."""
    if isinstance(node, bool):
        return lambda v: node
    unknown = node.keys() - _COMPILED - _ANNOTATIONS
    if unknown:
        raise ValueError(f"no compiled check for schema keywords {sorted(unknown)}")
    checks, implied = [], []  # implied: the types a check below already asks for
    if "$ref" in node:
        checks.append(_compile(defs[node["$ref"].removeprefix("#/$defs/")], defs))
    for key in node.keys() & {"const", "enum"}:
        pairs = {(type(e), e) for e in (node["enum"] if key == "enum" else [node["const"]])}
        checks.append(lambda v, pairs=pairs: any(type(v) is t and v == e for t, e in pairs))
    if node.keys() & {"required", "properties", "additionalProperties"}:
        props = {key: _compile(sub, defs) for key, sub in node.get("properties", {}).items()}
        rest, required = _compile(node.get("additionalProperties", True), defs), set(node.get("required", ()))
        checks.append(lambda v: type(v) is dict and required <= v.keys()
                      and all(props.get(key, rest)(x) for key, x in v.items()))
        implied.append({dict})
    if node.keys() & {"items", "minItems", "maxItems"}:
        item, lo, hi = node.get("items", True), node.get("minItems", 0), node.get("maxItems", math.inf)
        if isinstance(item, dict) and item.keys() == {"type"}:  # e.g. a number vector: one pass over the types
            item_types = _types(item, defs)
            checks.append(lambda v: type(v) is list and lo <= len(v) <= hi and set(map(type, v)) <= item_types)
        else:
            item_check = _compile(item, defs)
            checks.append(lambda v: type(v) is list and lo <= len(v) <= hi and all(map(item_check, v)))
        implied.append({list})
    if node.keys() & {"minimum", "exclusiveMinimum"}:
        low, above = node.get("minimum", -math.inf), node.get("exclusiveMinimum", -math.inf)
        checks.append(lambda v: type(v) in (int, float) and v >= low and v > above)
        implied.append({int, float})
    if "oneOf" in node:
        # branches of pairwise disjoint types: at most one accepts, so any() is exact
        kinds = [_types(sub, defs) for sub in node["oneOf"]]
        if sum(map(len, kinds)) != len(set().union(*kinds)):
            raise ValueError("oneOf branches must admit disjoint types")
        branches = [_compile(sub, defs) for sub in node["oneOf"]]
        checks.append(lambda v: any(branch(v) for branch in branches))
    if "type" in node:
        types = _types(node, defs)
        if not any(kind <= types for kind in implied):
            checks.append(lambda v: type(v) in types)
    return checks[0] if len(checks) == 1 else lambda v: all(check(v) for check in checks)


class _ShippedSchema:
    """``cls`` for ``jsonschema.validate``: the first ``check_schema`` runs the
    meta-schema check and builds the full schema's validator and the compiled
    predicate; later calls skip all three. ``validator.iter_errors`` yields
    nothing for a document the predicate accepts, else the validator's errors."""

    validator = None

    @classmethod
    def check_schema(cls, schema: dict) -> None:
        if cls.validator is None:
            kind = jsonschema.validators.validator_for(schema)
            kind.check_schema(schema)
            full, accepts = kind(schema), _compile(schema, schema.get("$defs", {}))
            cls.validator = SimpleNamespace(iter_errors=lambda doc: () if accepts(doc) else full.iter_errors(doc))

    def __new__(cls, schema: dict):
        return cls.validator


def _terms_out(terms: dict) -> dict:
    return {name: np.asarray(arr).tolist() for name, arr in sorted(terms.items())}


def _condition_out(cond: Condition) -> list:
    out = []
    for con in cond.constraints:
        entry = {
            "coeffs": con.coeffs.tolist(),
            "relation": con.relation,
            "bound": con.bound,
        }
        if con.coeff_terms:
            entry["coeff_terms"] = _terms_out(con.coeff_terms)
        if con.bound_terms:
            entry["bound_terms"] = dict(sorted(con.bound_terms.items()))
        out.append(entry)
    return out


def bundle_to_dict(bundle: ModelBundle) -> dict:
    automaton = bundle.automaton
    table = automaton.vars
    locations = []
    for loc in automaton.locations:
        flow = {
            "a": loc.dynamics.a.tolist(),
            "b": loc.dynamics.b.tolist(),
            "c": loc.dynamics.c.tolist(),
        }
        for key, terms in (
            ("a_terms", loc.dynamics.a_terms),
            ("b_terms", loc.dynamics.b_terms),
            ("c_terms", loc.dynamics.c_terms),
        ):
            if terms:
                flow[key] = _terms_out(terms)
        locations.append({"name": loc.name, "invariant": _condition_out(loc.invariant), "flow": flow})
    transitions = []
    for tr in automaton.transitions:
        reset = {"matrix": tr.reset.r_matrix.tolist(), "offset": tr.reset.r_offset.tolist()}
        if tr.reset.matrix_terms:
            reset["matrix_terms"] = _terms_out(tr.reset.matrix_terms)
        if tr.reset.offset_terms:
            reset["offset_terms"] = _terms_out(tr.reset.offset_terms)
        transitions.append(
            {
                "source": tr.source,
                "target": tr.target,
                "label": tr.label,
                "guard": _condition_out(tr.guard),
                "reset": reset,
            }
        )
    settings = bundle.settings
    return {
        "format": "hyra-bundle",
        "version": 1,
        "name": automaton.name,
        "variables": {
            "state": list(table.state_vars),
            "input": list(table.input_vars),
            "constants": dict(sorted(table.constants.items())),
        },
        "input_range": {
            name: list(automaton.input_range[name]) for name in table.input_vars
        },
        "locations": locations,
        "transitions": transitions,
        "settings": {
            "horizon": settings.horizon,
            "step": settings.step,
            "max_jumps": settings.max_jumps,
            "fixpoint": settings.fixpoint_check,
            "forbidden": None if settings.forbidden is None else _condition_out(settings.forbidden),
            "output_vars": None if settings.output_vars is None else list(settings.output_vars),
        },
        "initial": {
            "location": bundle.initial.location,
            "box": {
                var: [lo, hi]
                for var, lo, hi in zip(table.state_vars, bundle.initial.box.lo.tolist(), bundle.initial.box.hi.tolist())
            },
        },
    }


# Number tokens whose orjson text differs from repr's. A number is the only
# token that ends a line with digits (strings end in a quote and hold no raw
# newline), so a match is never part of a name or a label.
_EXPONENT = re.compile(rb"e(-?)(\d+)(?=,?\n)")  # repr: e+16, e-07
_SMALL = re.compile(rb"0\.0000[1-9]\d*(?=,?\n)")  # 1e-5 <= |x| < 1e-4, repr: 1.5e-05
_NULL = re.compile(rb"null(?=,?\n)")
_NOT_ASCII = re.compile("[^\x00-\x7e]")  # what ensure_ascii escapes besides controls, quote and backslash


def _exponent(m: re.Match) -> bytes:
    sign, digits = m.groups()
    if not sign:
        return b"e+" + digits
    return b"e-0" + digits if len(digits) == 1 else m[0]


def _small(m: re.Match) -> bytes:
    before = m.string[m.start() - 1]  # a digit when the match is the tail of a larger number
    return repr(float(m[0])).encode() if before in b" -" else m[0]


def _escape(m: re.Match) -> str:
    code = ord(m[0])
    if code <= 0xFFFF:
        return f"\\u{code:04x}"
    code -= 0x10000
    return f"\\u{0xD800 | code >> 10:04x}\\u{0xDC00 | code & 0x3FF:04x}"


def _null_spellings(value, out: list) -> list:
    """json's text of each value orjson writes as ``null`` (None, NaN, infinities), in document order."""
    if isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            _null_spellings(item, out)
    elif value is None:
        out.append(b"null")
    elif isinstance(value, float) and not math.isfinite(value):
        out.append(b"NaN" if value != value else b"Infinity" if value > 0 else b"-Infinity")
    return out


def write_json(bundle: ModelBundle) -> str:
    """The canonical text of a bundle: ``json.dumps(bundle_to_dict(bundle), indent=2)`` and a newline.

    One ``orjson`` pass writes the document. Its floats carry the shortest
    round-trip digits, those ``repr`` picks, and differ from ``repr`` only in
    notation; the same fix-ups as in ``expressions.format_rows`` rewrite
    just those number tokens: exponents gain a ``+`` or a leading zero
    (``1e+16``, ``1.5e-07``), and 1e-5 <= |x| < 1e-4 goes from ``0.00001`` to
    ``1e-05``. ``.0`` and ``-0.0`` are kept. Non-finite numbers, which orjson
    writes as ``null``, become ``NaN``/``Infinity`` only when the document
    holds more ``null`` tokens than its None values. Non-ASCII characters
    and DEL are escaped as ``ensure_ascii`` does, with surrogate pairs above
    the BMP.
    """
    data = bundle_to_dict(bundle)
    text = orjson.dumps(data, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    text = _SMALL.sub(_small, _EXPONENT.sub(_exponent, text))
    settings = bundle.settings
    nones = (settings.forbidden is None) + (settings.output_vars is None)
    nones += sum(tr.label is None for tr in bundle.automaton.transitions)
    if text.count(b"null") > nones:  # a non-finite number, or "null" inside a string
        spellings = iter(_null_spellings(data, []))
        text = _NULL.sub(lambda m: next(spellings), text)
    if text.isascii() and b"\x7f" not in text:
        return text.decode("ascii")
    return _NOT_ASCII.sub(_escape, text.decode())


def _condition_in(data: list) -> Condition:
    """The condition of a schema-checked list of constraints."""
    return Condition([LinearConstraint(e["coeffs"], e["relation"], e["bound"], e.get("coeff_terms"),
                                       e.get("bound_terms")) for e in data])


def bundle_from_dict(data: dict) -> ModelBundle:
    try:
        jsonschema.validate(data, _schema(), cls=_ShippedSchema)
    except jsonschema.ValidationError as error:
        raise SchemaViolation(f"bundle document rejected: {error.message}") from error
    try:
        return _build_bundle(data)
    except (ValueError, OverflowError) as exc:
        raise SchemaViolation(f"bundle document rejected: {exc}") from exc


def _build_bundle(data: dict) -> ModelBundle:
    """The IR of a schema-checked document, built through the IR's public constructors, whose
    conversion errors (``ValueError``, ``OverflowError``) ``bundle_from_dict`` words as rejections."""
    variables = data["variables"]
    table = VariableTable(variables["state"], variables["input"], variables["constants"])
    locations = []
    for entry in data["locations"]:
        flow = entry["flow"]
        dynamics = AffineDynamics(flow["a"], flow["b"], flow["c"],
                                  flow.get("a_terms"), flow.get("b_terms"), flow.get("c_terms"))
        locations.append(Location(entry["name"], _condition_in(entry["invariant"]), dynamics))
    transitions = []
    for entry in data["transitions"]:
        r = entry["reset"]
        reset = ResetMap(r["matrix"], r["offset"], r.get("matrix_terms"), r.get("offset_terms"))
        transitions.append(Transition(entry["source"], entry["target"], _condition_in(entry["guard"]),
                                      reset, entry.get("label")))
    automaton = HybridAutomaton(data["name"], table, locations, transitions, data.get("input_range"))
    s = data["settings"]
    forbidden = None if s["forbidden"] is None else _condition_in(s["forbidden"])
    defects = validate(automaton, forbidden)
    if defects:
        raise BundleDefects(defects)
    for name in s.get("output_vars") or ():
        if name not in table.state_vars:
            raise SchemaViolation(f"output_vars: {name!r} is not a state variable")
    settings = ReachSettings(
        s["horizon"],
        s["step"],
        s["max_jumps"],
        forbidden,
        None if s.get("output_vars") is None else tuple(s["output_vars"]),
        s["fixpoint"],
    )
    init = data["initial"]
    if init["location"] not in automaton.location_names():
        raise SchemaViolation(f"initial location {init['location']!r} not in model")
    missing = [v for v in table.state_vars if v not in init["box"]]
    if missing:
        raise SchemaViolation(f"initial box misses variables: {', '.join(missing)}")
    lo = np.array([init["box"][v][0] for v in table.state_vars], dtype=float)
    hi = np.array([init["box"][v][1] for v in table.state_vars], dtype=float)
    initial = InitialCondition(init["location"], Box(lo, hi))
    return ModelBundle(automaton, settings, initial)


def _lone_surrogate(value):
    """The first string of a JSON value (object keys included) that holds a lone surrogate, or None.

    The reader turns an escaped surrogate pair into one character, so any
    surrogate code point left in a ``str`` stands alone, and UTF-8, which
    orjson writes, cannot encode it.
    """
    if isinstance(value, str):
        try:
            value.encode()
        except UnicodeEncodeError:
            return value
        return None
    if isinstance(value, (dict, list)):
        for item in (*value.keys(), *value.values()) if isinstance(value, dict) else value:
            found = _lone_surrogate(item)
            if found is not None:
                return found
    return None


def read_json(text: str) -> ModelBundle:
    """The bundle of a JSON document; a ``SchemaViolation`` for any document
    ``write_json`` could not write back: one that is not JSON, fails the schema
    or the IR, or holds a string with a lone surrogate code point."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    # only a \uXXXX escape or a non-ASCII text can spell a surrogate
    if "\\u" in text or not text.isascii():
        bad = _lone_surrogate(data)
        if bad is not None:
            raise SchemaViolation(f"bundle document rejected: {bad!r} holds a lone surrogate, which is not Unicode text")
    return bundle_from_dict(data)
