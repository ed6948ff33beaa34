"""In-memory representation of affine hybrid automata.

A location carries affine dynamics x' = A x + B u + c and a conjunctive
invariant; transitions carry a conjunctive guard and an affine reset
x' = R x + r. Coefficients may reference named constants symbolically: every
matrix/vector has an optional overlay mapping a constant name to an array of
per-entry multipliers, and ``resolved()`` folds the overlays using the
current constant values. All values are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import UnknownSymbol
from .sets import Box

# The halfspace rows c . x <= d of each relation, as signs applied to
# (coeffs, bound): strict relations read as closed, and an equality is its
# row followed by the negation.
_ROW_SIGNS = {"<=": (1.0,), "<": (1.0,), "==": (1.0, -1.0), ">=": (-1.0,), ">": (-1.0,)}


def _freeze(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)  # a copy: freezing must not reach the caller's array
    out.flags.writeable = False
    return out


def _freeze_terms(terms) -> dict:
    """Frozen symbolic term arrays by name; an all-zero array is no term, so every reader drops it."""
    frozen = {name: _freeze(arr) for name, arr in sorted((terms or {}).items())}
    return {name: arr for name, arr in frozen.items() if arr.any()}


def _terms_equal(t1: dict, t2: dict) -> bool:
    if t1.keys() != t2.keys():
        return False
    return all(np.array_equal(t1[k], t2[k]) for k in t1)


def _fields_equal(self, other) -> bool:
    """Field-wise equality of two IR values of the same class.

    Arrays compare with ``np.array_equal``, dicts (symbolic terms, constants,
    input ranges) entry by entry with ``_terms_equal``, boxes by their bounds
    and everything else with ``==``. A class that sets ``__eq__`` to this and
    no ``__hash__`` is unhashable, like its arrays.
    """
    if not isinstance(other, type(self)):
        return False
    for f in fields(self):
        mine, theirs = getattr(self, f.name), getattr(other, f.name)
        if isinstance(mine, np.ndarray):
            same = np.array_equal(mine, theirs)
        elif isinstance(mine, dict):
            same = _terms_equal(mine, theirs)
        elif isinstance(mine, Box):
            same = np.array_equal(mine.lo, theirs.lo) and np.array_equal(mine.hi, theirs.hi)
        else:
            same = mine == theirs
        if not same:
            return False
    return True


def _apply_terms(base: np.ndarray, terms: dict, constants: dict) -> np.ndarray:
    out = np.array(base, dtype=float)
    for name, mult in terms.items():
        out += constants[name] * np.asarray(mult)
    return out


@dataclass(frozen=True, eq=False)
class VariableTable:
    """Ordered state/input variable names plus named constant values."""

    state_vars: tuple
    input_vars: tuple = ()
    constants: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "state_vars", tuple(self.state_vars))
        object.__setattr__(self, "input_vars", tuple(self.input_vars))
        object.__setattr__(self, "constants", {name: float(v) for name, v in self.constants.items()})

    __eq__ = _fields_equal

    @property
    def n(self) -> int:
        return len(self.state_vars)

    @property
    def m(self) -> int:
        return len(self.input_vars)

    def state_index(self, name: str) -> int:
        return self.state_vars.index(name)

    def all_names(self) -> tuple:
        return self.state_vars + self.input_vars + tuple(self.constants)


@dataclass(frozen=True, eq=False)
class LinearConstraint:
    """coeffs . x <relation> bound over the state variables."""

    coeffs: np.ndarray
    relation: str
    bound: float
    coeff_terms: dict = field(default_factory=dict)
    bound_terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.relation not in _ROW_SIGNS:
            raise ValueError(f"unknown relation {self.relation!r}")
        object.__setattr__(self, "coeffs", _freeze(self.coeffs))
        object.__setattr__(self, "bound", float(self.bound))
        object.__setattr__(self, "coeff_terms", _freeze_terms(self.coeff_terms))
        object.__setattr__(self, "bound_terms", {name: float(v) for name, v in sorted(self.bound_terms.items()) if v})

    __eq__ = _fields_equal

    @property
    def symbols(self) -> set:
        return set(self.coeff_terms) | set(self.bound_terms)

    def resolve(self, constants: dict) -> "LinearConstraint":
        coeffs = _apply_terms(self.coeffs, self.coeff_terms, constants)
        bound = self.bound + sum(constants[k] * v for k, v in self.bound_terms.items())
        return LinearConstraint(coeffs, self.relation, bound)

    def satisfied(self, x, slack: float = 0.0) -> bool:
        value = float(np.dot(self.coeffs, x))
        if self.relation in ("<=", "<"):
            return value <= self.bound + slack
        if self.relation in (">=", ">"):
            return value >= self.bound - slack
        return abs(value - self.bound) <= slack


class Halfspaces(NamedTuple):
    """A condition as rows ``coeffs[i] . x <= bounds[i]`` (``equality`` marks the rows of ``==``).

    ``axis[i]`` is the column of row i's single nonzero coefficient, or -1
    when the row has none or several: ``clamp_boxes`` clamps a one-variable
    row on that column alone. Every field is required, so no row can be
    dropped by a shorter construction.
    """

    coeffs: np.ndarray  # (rows, n)
    bounds: np.ndarray  # (rows,)
    equality: np.ndarray  # (rows,) bool
    axis: np.ndarray  # (rows,) int, -1 unless the row has exactly one nonzero

    def widened(self, slack: float) -> "Halfspaces":
        """The rows with each equality read as a slab of half-width ``slack``."""
        return self._replace(bounds=np.where(self.equality, self.bounds + slack, self.bounds))


@dataclass(frozen=True, eq=False)
class Condition:
    """Conjunction of linear constraints; an empty list means `true`."""

    constraints: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    __eq__ = _fields_equal

    @property
    def is_true(self) -> bool:
        return not self.constraints

    @property
    def symbols(self) -> set:
        out = set()
        for con in self.constraints:
            out |= con.symbols
        return out

    def resolve(self, constants: dict) -> "Condition":
        return Condition(tuple(c.resolve(constants) for c in self.constraints))

    def satisfied(self, x, slack: float = 0.0) -> bool:
        return all(c.satisfied(x, slack) for c in self.constraints)

    def halfspaces(self) -> Halfspaces:
        """The rows c . x <= d of the constraints in order (see ``_ROW_SIGNS``), built once.

        A condition with symbolic terms has no numeric rows: it raises ``ValueError``.
        """
        cached = self.__dict__.get("_halfspaces")
        if cached is not None:
            return cached
        if self.symbols:
            raise ValueError(f"condition references constants {sorted(self.symbols)}; resolve it first")
        rows = [(con, sign) for con in self.constraints for sign in _ROW_SIGNS[con.relation]]
        n = self.constraints[0].coeffs.shape[0] if self.constraints else 0
        coeffs = _freeze(np.reshape([sign * con.coeffs for con, sign in rows], (len(rows), n)))
        nonzero = [np.flatnonzero(row) for row in coeffs]
        form = Halfspaces(coeffs, _freeze([sign * con.bound for con, sign in rows]),
                          _freeze([con.relation == "==" for con, _ in rows], bool),
                          _freeze([cols[0] if cols.size == 1 else -1 for cols in nonzero], int))
        object.__setattr__(self, "_halfspaces", form)
        return form


@dataclass(frozen=True, eq=False)
class AffineDynamics:
    """x' = A x + B u + c with optional symbolic-constant overlays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a_terms: dict = field(default_factory=dict)
    b_terms: dict = field(default_factory=dict)
    c_terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze(self.a))
        object.__setattr__(self, "b", _freeze(self.b))
        object.__setattr__(self, "c", _freeze(self.c))
        object.__setattr__(self, "a_terms", _freeze_terms(self.a_terms))
        object.__setattr__(self, "b_terms", _freeze_terms(self.b_terms))
        object.__setattr__(self, "c_terms", _freeze_terms(self.c_terms))

    __eq__ = _fields_equal

    @classmethod
    def zero(cls, n: int, m: int = 0) -> "AffineDynamics":
        return cls(np.zeros((n, n)), np.zeros((n, m)), np.zeros(n))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def symbols(self) -> set:
        return set(self.a_terms) | set(self.b_terms) | set(self.c_terms)

    def resolve(self, constants: dict) -> "AffineDynamics":
        return AffineDynamics(
            _apply_terms(self.a, self.a_terms, constants),
            _apply_terms(self.b, self.b_terms, constants),
            _apply_terms(self.c, self.c_terms, constants),
        )


@dataclass(frozen=True, eq=False)
class ResetMap:
    """Post-jump update x' = R x + r; defaults to the identity."""

    r_matrix: np.ndarray
    r_offset: np.ndarray
    matrix_terms: dict = field(default_factory=dict)
    offset_terms: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "r_matrix", _freeze(self.r_matrix))
        object.__setattr__(self, "r_offset", _freeze(self.r_offset))
        object.__setattr__(self, "matrix_terms", _freeze_terms(self.matrix_terms))
        object.__setattr__(self, "offset_terms", _freeze_terms(self.offset_terms))

    __eq__ = _fields_equal

    @classmethod
    def identity(cls, n: int) -> "ResetMap":
        return cls(np.eye(n), np.zeros(n))

    @property
    def symbols(self) -> set:
        return set(self.matrix_terms) | set(self.offset_terms)

    def is_identity(self) -> bool:
        n = self.r_matrix.shape[0]
        return (
            not self.matrix_terms
            and not self.offset_terms
            and np.array_equal(self.r_matrix, np.eye(n))
            and not self.r_offset.any()
        )

    def resolve(self, constants: dict) -> "ResetMap":
        return ResetMap(
            _apply_terms(self.r_matrix, self.matrix_terms, constants),
            _apply_terms(self.r_offset, self.offset_terms, constants),
        )

    def apply(self, x) -> np.ndarray:
        return self.r_matrix @ np.asarray(x, dtype=float) + self.r_offset


@dataclass(frozen=True, eq=False)
class Location:
    name: str
    invariant: Condition
    dynamics: AffineDynamics

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class Transition:
    source: str
    target: str
    guard: Condition
    reset: ResetMap
    label: str | None = None

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class HybridAutomaton:
    name: str
    vars: VariableTable
    locations: tuple
    transitions: tuple
    input_range: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "locations", tuple(self.locations))
        object.__setattr__(self, "transitions", tuple(self.transitions))
        object.__setattr__(
            self,
            "input_range",
            {k: (float(v[0]), float(v[1])) for k, v in dict(self.input_range).items()},
        )

    __eq__ = _fields_equal

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

    def location_names(self) -> tuple:
        return tuple(loc.name for loc in self.locations)

    def transitions_from(self, name: str) -> tuple:
        return tuple(t for t in self.transitions if t.source == name)

    def input_box(self) -> Box | None:
        if not self.vars.input_vars:
            return None
        lo = np.array([self.input_range[v][0] for v in self.vars.input_vars])
        hi = np.array([self.input_range[v][1] for v in self.vars.input_vars])
        return Box(lo, hi)

    def resolved(self) -> "HybridAutomaton":
        """Fold symbolic constant references into plain numbers.

        The automaton is frozen, so the fold runs once and is kept; the
        result resolves to itself. ``bind_constant`` returns a new automaton,
        which resolves afresh.
        """
        cached = self.__dict__.get("_resolved")
        if cached is not None:
            return cached
        consts = self.vars.constants
        locations = tuple(
            Location(l.name, l.invariant.resolve(consts), l.dynamics.resolve(consts))
            for l in self.locations
        )
        transitions = tuple(
            Transition(t.source, t.target, t.guard.resolve(consts), t.reset.resolve(consts), t.label)
            for t in self.transitions
        )
        result = HybridAutomaton(self.name, self.vars, locations, transitions, self.input_range)
        object.__setattr__(result, "_resolved", result)
        object.__setattr__(self, "_resolved", result)
        return result


@dataclass(frozen=True, eq=False)
class InitialCondition:
    location: str
    box: Box

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class ReachSettings:
    horizon: float
    step: float
    max_jumps: int = 10
    forbidden: Condition | None = None
    output_vars: tuple | None = None
    fixpoint_check: bool = True

    def __post_init__(self):
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "step", float(self.step))
        if not (0 < self.step <= self.horizon):
            raise ValueError("need 0 < step <= horizon")
        if not np.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if isinstance(self.max_jumps, bool) or self.max_jumps % 1 != 0 or self.max_jumps < 0:
            raise ValueError(f"max_jumps must be an integer >= 0, not {self.max_jumps!r}")
        object.__setattr__(self, "max_jumps", int(self.max_jumps))
        if self.max_jumps >= 1 << 64:  # past what the JSON writer spells
            raise ValueError(f"max_jumps must be below 2**64, not {self.max_jumps}")
        if self.output_vars is not None:
            object.__setattr__(self, "output_vars", tuple(self.output_vars))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class ModelBundle:
    """Automaton plus the settings and initial set it ships with."""

    automaton: HybridAutomaton
    settings: ReachSettings
    initial: InitialCondition

    __eq__ = _fields_equal

    def resolved(self) -> "ModelBundle":
        """The bundle with its automaton and forbidden set resolved by the same constants, built once."""
        cached = self.__dict__.get("_resolved")
        if cached is not None:
            return cached
        automaton = self.automaton.resolved()
        settings = self.settings
        if settings.forbidden is not None:
            settings = replace(settings, forbidden=settings.forbidden.resolve(automaton.vars.constants))
        result = ModelBundle(automaton, settings, self.initial)
        object.__setattr__(result, "_resolved", result)
        object.__setattr__(self, "_resolved", result)
        return result


@dataclass(frozen=True)
class Defect:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    defects: tuple

    @property
    def ok(self) -> bool:
        return not self.defects

    def __iter__(self):
        return iter(self.defects)

    def __len__(self):
        return len(self.defects)


def _all_finite(arrays) -> bool:
    """Whether every entry of the arrays is finite: one numpy check over their entries stacked flat."""
    return bool(np.isfinite(np.concatenate([a.ravel() for a in arrays] + [np.empty(0)])).all())


def _dynamics_terms(dyn: AffineDynamics) -> list:
    return [*dyn.a_terms.values(), *dyn.b_terms.values(), *dyn.c_terms.values()]


def _reset_terms(reset: ResetMap) -> list:
    return [*reset.matrix_terms.values(), *reset.offset_terms.values()]


def _check_condition(defects, cond: Condition, n: int, known_consts, where: str):
    for con in cond.constraints:
        if con.coeffs.shape != (n,):
            defects.append(Defect("dimension", f"{where}: constraint over {con.coeffs.shape[0]} variables, expected {n}"))
            continue
        coeffs = con.coeffs.tolist()
        if not (all(map(math.isfinite, coeffs)) and math.isfinite(con.bound)
                and all(map(math.isfinite, con.bound_terms.values()))
                and (not con.coeff_terms or _all_finite(con.coeff_terms.values()))):
            defects.append(Defect("non-finite", f"{where}: constraint has non-finite entries"))
        if not any(coeffs) and not con.coeff_terms:
            defects.append(Defect("degenerate-constraint", f"{where}: constraint has no variable term"))
        for sym in con.symbols:
            if sym not in known_consts:
                defects.append(Defect("unknown-symbol", f"{where}: references undeclared constant {sym!r}"))


def validate(automaton: HybridAutomaton, forbidden: Condition | None = None) -> ValidationReport:
    """Collect structural defects; an empty report means well-formed.

    Defects are data, not exceptions: dimension mismatches, dangling
    location names, duplicate names, non-finite entries, and references to
    undeclared constants all land in the report, also for a ``forbidden`` set.
    Named constants and the symbolic term arrays must be finite too. A
    constraint's finiteness and all-zero checks run in plain Python over its
    ``tolist()`` values. The dynamics and reset arrays and terms of all
    locations and transitions are checked for finiteness in one stacked numpy
    pass, and one location or transition at a time only when that pass finds
    a non-finite entry.
    """
    defects = []
    vt = automaton.vars
    n, m = vt.n, vt.m
    consts = set(vt.constants)
    arrays_finite = _all_finite([arr for loc in automaton.locations
                                 for arr in (loc.dynamics.a, loc.dynamics.b, loc.dynamics.c, *_dynamics_terms(loc.dynamics))]
                                + [arr for tr in automaton.transitions
                                   for arr in (tr.reset.r_matrix, tr.reset.r_offset, *_reset_terms(tr.reset))])

    if n == 0:
        defects.append(Defect("no-state", "automaton declares no state variables"))
    names = list(vt.state_vars) + list(vt.input_vars) + list(vt.constants)
    seen = set()
    for name in names:
        if name in seen:
            defects.append(Defect("duplicate-name", f"name {name!r} declared more than once"))
        seen.add(name)
    for name, value in vt.constants.items():
        if not math.isfinite(value):
            defects.append(Defect("non-finite", f"constant {name!r} is not finite"))

    if set(automaton.input_range) != set(vt.input_vars):
        defects.append(Defect("input-range", "input_range keys do not match declared inputs"))
    for var, (lo, hi) in automaton.input_range.items():
        if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
            defects.append(Defect("input-range", f"input {var!r} has a non-compact range"))

    loc_names = set()
    for loc in automaton.locations:
        if loc.name in loc_names:
            defects.append(Defect("duplicate-location", f"location {loc.name!r} declared twice"))
        loc_names.add(loc.name)
        dyn = loc.dynamics
        if dyn.a.shape != (n, n):
            defects.append(Defect("dimension", f"location {loc.name!r}: A is {dyn.a.shape}, expected {(n, n)}"))
        if dyn.b.shape != (n, m):
            defects.append(Defect("dimension", f"location {loc.name!r}: B is {dyn.b.shape}, expected {(n, m)}"))
        if dyn.c.shape != (n,):
            defects.append(Defect("dimension", f"location {loc.name!r}: drift is {dyn.c.shape}, expected {(n,)}"))
        if not arrays_finite and not _all_finite((dyn.a, dyn.b, dyn.c)):
            defects.append(Defect("non-finite", f"location {loc.name!r}: dynamics entry not finite"))
        if not arrays_finite and not _all_finite(_dynamics_terms(dyn)):
            defects.append(Defect("non-finite", f"location {loc.name!r}: dynamics term not finite"))
        for sym in dyn.symbols:
            if sym not in consts:
                defects.append(Defect("unknown-symbol", f"location {loc.name!r}: dynamics references undeclared constant {sym!r}"))
        _check_condition(defects, loc.invariant, n, consts, f"location {loc.name!r} invariant")

    if not automaton.locations:
        defects.append(Defect("no-location", "automaton has no locations"))

    for i, tr in enumerate(automaton.transitions):
        where = f"transition #{i} ({tr.source}->{tr.target})"
        for end, val in (("source", tr.source), ("target", tr.target)):
            if val not in loc_names:
                defects.append(Defect("dangling-name", f"{where}: {end} {val!r} is not a location"))
        if tr.reset.r_matrix.shape != (n, n) or tr.reset.r_offset.shape != (n,):
            defects.append(Defect("dimension", f"{where}: reset shaped {tr.reset.r_matrix.shape}/{tr.reset.r_offset.shape}"))
        elif not arrays_finite and not _all_finite((tr.reset.r_matrix, tr.reset.r_offset)):
            defects.append(Defect("non-finite", f"{where}: reset entry not finite"))
        if not arrays_finite and not _all_finite(_reset_terms(tr.reset)):
            defects.append(Defect("non-finite", f"{where}: reset term not finite"))
        for sym in tr.reset.symbols:
            if sym not in consts:
                defects.append(Defect("unknown-symbol", f"{where}: reset references undeclared constant {sym!r}"))
        _check_condition(defects, tr.guard, n, consts, f"{where} guard")
    if forbidden is not None:
        _check_condition(defects, forbidden, n, consts, "forbidden set")

    return ValidationReport(tuple(defects))


def bind_constant(automaton: HybridAutomaton, name: str, value: float) -> HybridAutomaton:
    """Fix a named constant or input to a value.

    Constants are re-valued in the table (symbolic references pick the new
    value up on resolve). Inputs are eliminated: their dynamics column folds
    into the drift and the input dimension shrinks.
    """
    vt = automaton.vars
    value = float(value)
    if name in vt.constants:
        constants = dict(vt.constants)
        constants[name] = value
        new_vt = VariableTable(vt.state_vars, vt.input_vars, constants)
        return HybridAutomaton(automaton.name, new_vt, automaton.locations, automaton.transitions, automaton.input_range)

    if name in vt.input_vars:
        j = vt.input_vars.index(name)
        keep = [k for k in range(vt.m) if k != j]
        new_vt = VariableTable(vt.state_vars, tuple(v for v in vt.input_vars if v != name), vt.constants)
        locations = []
        for loc in automaton.locations:
            dyn = loc.dynamics
            c_terms = dict(dyn.c_terms)
            for sym, mult in dyn.b_terms.items():
                extra = value * np.asarray(mult)[:, j]
                c_terms[sym] = c_terms.get(sym, np.zeros(vt.n)) + extra
            new_dyn = AffineDynamics(
                dyn.a,
                dyn.b[:, keep],
                dyn.c + value * dyn.b[:, j],
                dyn.a_terms,
                {sym: np.asarray(mult)[:, keep] for sym, mult in dyn.b_terms.items()},
                c_terms,
            )
            locations.append(Location(loc.name, loc.invariant, new_dyn))
        input_range = {k: v for k, v in automaton.input_range.items() if k != name}
        return HybridAutomaton(automaton.name, new_vt, tuple(locations), automaton.transitions, input_range)

    raise UnknownSymbol(f"{name!r} is neither a constant nor an input")
