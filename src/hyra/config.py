"""key = value reachability configuration files.

Recognized keys: system, initially, forbidden, time-horizon, sampling-time,
max-jumps, output-variables, fixpoint. Lines starting with ``#`` and blank
lines are skipped; values may be wrapped in double quotes. ``initially``
is a conjunction of interval constraints on state variables plus an
optional ``loc() == name`` term selecting the start location.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MissingKey, UnknownKey
from .expressions import format_condition, format_number, parse_condition, split_conjuncts
from .ir import _ROW_SIGNS, Condition, InitialCondition, ReachSettings, VariableTable
from .sets import Box

_KNOWN_KEYS = (
    "system",
    "initially",
    "forbidden",
    "time-horizon",
    "sampling-time",
    "max-jumps",
    "output-variables",
    "fixpoint",
)

DEFAULT_MAX_JUMPS = 10


@dataclass(frozen=True)
class ParsedConfig:
    settings: ReachSettings
    initial: InitialCondition | None
    system: str | None


def _strip_quotes(value: str) -> str:
    value = value.strip()
    if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
        return value[1:-1]
    return value


def _joined_constraints(terms: list, table: VariableTable):
    """The constraint of each term from one ``parse_condition`` of their conjunction, which parses exactly
    when each term does, into what each gives alone (no term holds an ``&`` outside parentheses); None
    when it fails or gives more constraints than terms, so that parsing term by term words the error."""
    try:
        constraints = parse_condition(" & ".join(terms), table).constraints
    except Exception:
        return None
    return iter(constraints) if len(constraints) == len(terms) else None


def _parse_initially(text: str, table: VariableTable) -> InitialCondition:
    location = None
    lo = np.full(table.n, -math.inf)
    hi = np.full(table.n, math.inf)
    conjuncts = [(conjunct, conjunct.replace(" ", "")) for conjunct in split_conjuncts(text)]
    joined = _joined_constraints([c for c, head in conjuncts if not head.startswith("loc(")], table)
    for conjunct, head in conjuncts:
        if head.startswith("loc("):
            tail = conjunct[conjunct.find(")") + 1 :].lstrip()  # the whole term when it has no ")"
            if not tail.startswith("=="):
                raise ConfigError(f"malformed location term {conjunct!r}")
            location = tail[2:].strip()  # a name may hold spaces, as the XML's may
            continue
        cond = parse_condition(conjunct, table) if joined is None else Condition((next(joined),))
        if len(cond.constraints) != 1:
            raise ConfigError(f"initially term {conjunct!r} must be a single constraint")
        con = cond.constraints[0]
        coeffs = con.coeffs.tolist()
        nz = [j for j, c in enumerate(coeffs) if c]
        if cond.symbols or len(nz) != 1:
            raise ConfigError(f"initially term {conjunct!r} is not an interval bound on one variable")
        # Each halfspace row (sign c) x <= sign d bounds x above when sign c > 0,
        # else below, at (sign d) / (sign c), which is bit for bit d / c.
        i = nz[0]
        value = con.bound / coeffs[i]
        for sign in _ROW_SIGNS[con.relation]:
            if sign * coeffs[i] > 0:
                hi[i] = min(hi[i], value)
            else:
                lo[i] = max(lo[i], value)
    if location is None:
        raise ConfigError("initially must name a location via loc() == <name>")
    unbounded = [table.state_vars[i] for i in range(table.n) if not (math.isfinite(lo[i]) and math.isfinite(hi[i]))]
    if unbounded:
        raise ConfigError(f"initially leaves variables unbounded: {', '.join(unbounded)}")
    if np.any(lo > hi):
        raise ConfigError("initially intervals are empty (lo > hi)")
    return InitialCondition(location, Box(lo, hi))


def parse_config(text: str, table: VariableTable) -> ParsedConfig:
    """Parse configuration text against a variable table.

    Missing sampling-time defaults to horizon/1000; a missing time-horizon
    is an error. Unknown keys are rejected rather than ignored.
    """
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise UnknownKey(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _strip_quotes(value)

    if "time-horizon" not in values:
        raise MissingKey("time-horizon")
    try:
        horizon = float(values["time-horizon"])
    except ValueError as exc:
        raise ConfigError(f"time-horizon: {exc}") from exc
    if "sampling-time" in values:
        try:
            step = float(values["sampling-time"])
        except ValueError as exc:
            raise ConfigError(f"sampling-time: {exc}") from exc
    else:
        step = horizon / 1000.0

    max_jumps = DEFAULT_MAX_JUMPS
    if "max-jumps" in values:
        try:
            max_jumps = int(values["max-jumps"])
        except ValueError as exc:
            raise ConfigError(f"max-jumps: {exc}") from exc

    fixpoint = True
    if "fixpoint" in values:
        flag = values["fixpoint"].lower()
        if flag not in ("true", "false", "on", "off"):
            raise ConfigError(f"fixpoint: expected true/false, got {values['fixpoint']!r}")
        fixpoint = flag in ("true", "on")

    forbidden: Condition | None = None
    if "forbidden" in values and values["forbidden"]:
        forbidden = parse_condition(values["forbidden"], table)

    output_vars = None
    if "output-variables" in values:
        names = tuple(v.strip() for v in values["output-variables"].split(",") if v.strip())
        for name in names:
            if name not in table.state_vars:
                raise ConfigError(f"output-variables: {name!r} is not a state variable")
        if len(names) != 2:
            raise ConfigError("output-variables must name exactly two variables")
        output_vars = names

    initial = None
    if "initially" in values and values["initially"]:
        initial = _parse_initially(values["initially"], table)

    try:
        settings = ReachSettings(horizon, step, max_jumps, forbidden, output_vars, fixpoint)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return ParsedConfig(settings, initial, values.get("system"))


def emit_config(settings: ReachSettings, initial: InitialCondition, table: VariableTable, system: str) -> str:
    """Deterministic configuration text matching parse_config."""
    lines = [
        f"system = {system}",
        f"time-horizon = {format_number(settings.horizon)}",
        f"sampling-time = {format_number(settings.step)}",
        f"max-jumps = {settings.max_jumps}",
        f"fixpoint = {'true' if settings.fixpoint_check else 'false'}",
    ]
    if settings.output_vars:
        lines.append(f"output-variables = {', '.join(settings.output_vars)}")
    terms = [f"loc() == {initial.location}"]
    for i, var in enumerate(table.state_vars):
        lo, hi = initial.box.lo[i], initial.box.hi[i]
        if lo == hi:
            terms.append(f"{var} == {format_number(lo)}")
        else:
            terms.append(f"{var} >= {format_number(lo)}")
            terms.append(f"{var} <= {format_number(hi)}")
    lines.append(f"initially = {' & '.join(terms)}")
    if settings.forbidden is not None:
        lines.append(f"forbidden = {format_condition(settings.forbidden, table.state_vars)}")
    return "\n".join(lines) + "\n"
