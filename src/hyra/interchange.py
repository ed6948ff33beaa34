"""Canonical JSON interchange form for model bundles.

``write_json`` produces a canonical text (fixed key order, shortest
round-trip floats via json); ``read_json`` validates against the shipped
schema (data/bundle.schema.json) before building IR objects, so malformed
documents fail with SchemaViolation instead of deep attribute errors.

A read checks the document once. ``jsonschema`` walks it against an
envelope of the shipped schema, derived in code when the validator is
built: the ``vector``, ``matrix``, ``vectorTerms`` and ``matrixTerms``
definitions become bare arrays and objects, so the schema walks the
structure and not every matrix entry. One pass over the number arrays
then checks what those definitions asked: each vector a list of ints and
floats (no booleans), each matrix a list of such lists. A document that
fails either check is validated once more with the full shipped schema,
and its message is the full schema's, so the accepted documents and every
rejection message are those of plain ``jsonschema.validate``.

Values the schema admits but the IR rejects (non-finite or empty initial
boxes, a NaN step, an initial location the model lacks, a forbidden set
over the wrong number of variables, output variables that are not state
variables, an integer too large for a float) fail the same way.
The shipped schema itself is checked against its meta-schema once per
process, on the first read; every read then validates with the validators
built at that point.
write_json(read_json(s)) == s holds for any canonical s.
"""

from __future__ import annotations

import functools
import json
from importlib import resources
from itertools import chain

import jsonschema
import numpy as np

from .errors import SchemaViolation
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
    return json.loads(resources.files("hyra.data").joinpath("bundle.schema.json").read_text())


# The number-array definitions of the shipped schema, relaxed in the envelope.
_RELAXED = {"vector": "array", "matrix": "array", "vectorTerms": "object", "matrixTerms": "object"}


def _envelope(schema: dict) -> dict:
    """The shipped schema with its number-array definitions reduced to their
    outer type and every ``$ref`` replaced by the definition it names, which
    spares the validator a reference lookup per object."""
    defs = {**schema["$defs"], **{name: {"type": kind} for name, kind in _RELAXED.items()}}

    def inline(node):
        if isinstance(node, dict):
            if "$ref" in node:
                return inline(defs[node["$ref"].removeprefix("#/$defs/")])
            return {key: inline(value) for key, value in node.items() if key != "$defs"}
        if isinstance(node, list):
            return [inline(value) for value in node]
        return node

    return inline(schema)


class _ShippedSchema:
    """``cls`` for ``jsonschema.validate``: the first ``check_schema`` runs the
    meta-schema check and builds the validators of the envelope and of the
    full schema for the schema's draft; later calls skip both, and the
    constructor hands back the envelope validator."""

    validator = None
    full = None

    @classmethod
    def check_schema(cls, schema: dict) -> None:
        if cls.validator is None:
            kind = jsonschema.validators.validator_for(schema)
            kind.check_schema(schema)
            cls.full = kind(schema)
            cls.validator = kind(_envelope(schema))

    def __new__(cls, schema: dict):
        return cls.validator


# (array key, terms key, dimensions) of the number arrays in each object kind.
_FLOW = (("a", "a_terms", 2), ("b", "b_terms", 2), ("c", "c_terms", 1))
_RESET = (("matrix", "matrix_terms", 2), ("offset", "offset_terms", 1))
_CONSTRAINT = (("coeffs", "coeff_terms", 1),)


def _plain_numbers(data: dict) -> bool:
    """Whether every number array of a document the envelope accepted is what
    the full schema asks: a vector is a list of ints and floats, a matrix a
    list of vectors."""
    vectors, matrices = [], []

    def collect(obj: dict, spec: tuple) -> None:
        for key, terms_key, ndim in spec:
            out = vectors if ndim == 1 else matrices
            out.append(obj[key])
            out.extend(obj.get(terms_key, {}).values())

    conditions = [data["settings"]["forbidden"] or []]
    for loc in data["locations"]:
        collect(loc["flow"], _FLOW)
        conditions.append(loc["invariant"])
    for tr in data["transitions"]:
        collect(tr["reset"], _RESET)
        conditions.append(tr["guard"])
    for con in chain.from_iterable(conditions):
        collect(con, _CONSTRAINT)
    # outer lists first: a terms entry the envelope let through may be no list at all
    if not set(map(type, chain(vectors, matrices))) <= {list}:
        return False
    rows = list(chain.from_iterable(matrices))
    numbers = chain.from_iterable(vectors + rows)
    return set(map(type, rows)) <= {list} and set(map(type, numbers)) <= {int, float}


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
                var: [bundle.initial.box.lo[i], bundle.initial.box.hi[i]]
                for i, var in enumerate(table.state_vars)
            },
        },
    }


def write_json(bundle: ModelBundle) -> str:
    return json.dumps(bundle_to_dict(bundle), indent=2) + "\n"


def _terms_in(data: dict | None) -> dict:
    return {name: np.asarray(arr, dtype=float) for name, arr in (data or {}).items()}


def _condition_in(data: list) -> Condition:
    constraints = []
    for entry in data:
        constraints.append(
            LinearConstraint(
                np.asarray(entry["coeffs"], dtype=float),
                entry["relation"],
                entry["bound"],
                _terms_in(entry.get("coeff_terms")),
                dict(entry.get("bound_terms") or {}),
            )
        )
    return Condition(tuple(constraints))


def bundle_from_dict(data: dict) -> ModelBundle:
    try:
        jsonschema.validate(data, _schema(), cls=_ShippedSchema)
        plain = _plain_numbers(data)
    except jsonschema.ValidationError:
        plain = False
    if not plain:
        error = jsonschema.exceptions.best_match(_ShippedSchema.full.iter_errors(data))
        if error is not None:
            raise SchemaViolation(f"bundle document rejected: {error.message}") from error
    try:
        return _build_bundle(data)
    except (ValueError, OverflowError) as exc:
        raise SchemaViolation(f"bundle document rejected: {exc}") from exc


def _build_bundle(data: dict) -> ModelBundle:
    variables = data["variables"]
    table = VariableTable(
        tuple(variables["state"]), tuple(variables["input"]), dict(variables["constants"])
    )
    locations = []
    for entry in data["locations"]:
        flow = entry["flow"]
        dynamics = AffineDynamics(
            np.asarray(flow["a"], dtype=float),
            np.asarray(flow["b"], dtype=float),
            np.asarray(flow["c"], dtype=float),
            _terms_in(flow.get("a_terms")),
            _terms_in(flow.get("b_terms")),
            _terms_in(flow.get("c_terms")),
        )
        locations.append(Location(entry["name"], _condition_in(entry["invariant"]), dynamics))
    transitions = []
    for entry in data["transitions"]:
        reset = ResetMap(
            np.asarray(entry["reset"]["matrix"], dtype=float),
            np.asarray(entry["reset"]["offset"], dtype=float),
            _terms_in(entry["reset"].get("matrix_terms")),
            _terms_in(entry["reset"].get("offset_terms")),
        )
        transitions.append(
            Transition(entry["source"], entry["target"], _condition_in(entry["guard"]), reset, entry.get("label"))
        )
    automaton = HybridAutomaton(
        data["name"],
        table,
        tuple(locations),
        tuple(transitions),
        {name: tuple(rng) for name, rng in data.get("input_range", {}).items()},
    )
    report = validate(automaton)
    if not report.ok:
        raise SchemaViolation("bundle does not validate: " + "; ".join(str(d) for d in report))

    s = data["settings"]
    forbidden = None if s["forbidden"] is None else _condition_in(s["forbidden"])
    if forbidden is not None and not forbidden.symbols <= set(table.constants):
        unknown = sorted(forbidden.symbols - set(table.constants))
        raise SchemaViolation(f"forbidden references undeclared constants: {unknown}")
    for con in () if forbidden is None else forbidden.constraints:
        if con.coeffs.shape != (table.n,):
            raise SchemaViolation(f"forbidden: constraint over {con.coeffs.size} variables, expected {table.n}")
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


def read_json(text: str) -> ModelBundle:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    return bundle_from_dict(data)
