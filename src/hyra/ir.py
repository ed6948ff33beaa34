"""In-memory representation of affine hybrid automata.

A location carries affine dynamics x' = A x + B u + c and a conjunctive
invariant; transitions carry a conjunctive guard and an affine reset
x' = R x + r. Coefficients may reference named constants symbolically: every
matrix/vector has an optional overlay mapping a constant name to an array of
per-entry multipliers, and ``bundle.resolved`` folds the overlays using the
current constant values. All values are immutable after construction, so
what a record derives (``bundle.resolved``, ``automaton.outgoing``,
``cond.halfspaces``, ``reset.is_identity``) is a ``cached_property``, built
once on first use.

Each record that converts a field has one hand-written constructor, which
every caller goes through, the readers (``spaceex``, ``config``,
``interchange``) included: it converts, copies, normalizes and freezes each
field once, so every array a record holds is a read-only float copy owned
by no caller. ``validate`` is the one semantic check of what a reader builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
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
    out.setflags(write=False)  # cheaper than assigning flags.writeable
    return out


def _freeze_terms(terms) -> dict:
    """Frozen symbolic term arrays by name, in name order; an all-zero array is no term, so it is dropped."""
    return {name: arr for name in sorted(terms) if (arr := _freeze(terms[name])).any()} if terms else {}


def _bound_terms(terms: dict) -> dict:
    """Bound multipliers by name as floats, in name order, zero ones dropped."""
    return {name: float(v) for name, v in sorted(terms.items()) if v} if terms else {}


class _Record:
    def __eq__(self, other) -> bool:
        """An IR record equals one of its own class whose fields are equal.

        Arrays compare with ``np.array_equal``, dicts (symbolic terms,
        constants, input ranges) by key set, then entry by entry, boxes by
        their bounds and everything else with ``==``. A record class sets no
        ``__hash__``, so it is unhashable, like its arrays.
        """
        if not isinstance(other, type(self)):
            return False
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray):
                same = np.array_equal(mine, theirs)
            elif isinstance(mine, dict):
                same = mine.keys() == theirs.keys() and all(np.array_equal(mine[k], theirs[k]) for k in mine)
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


@dataclass(frozen=True, eq=False, init=False)
class VariableTable(_Record):
    """Ordered state/input variable names plus named constant values."""

    state_vars: tuple
    input_vars: tuple
    constants: dict

    def __init__(self, state_vars, input_vars=(), constants=None):
        object.__setattr__(self, "state_vars", tuple(state_vars))
        object.__setattr__(self, "input_vars", tuple(input_vars))
        object.__setattr__(self, "constants", {name: float(v) for name, v in constants.items()} if constants else {})

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


@dataclass(frozen=True, eq=False, init=False)
class LinearConstraint(_Record):
    """coeffs . x <relation> bound over the state variables."""

    coeffs: np.ndarray
    relation: str
    bound: float
    coeff_terms: dict
    bound_terms: dict

    def __init__(self, coeffs, relation, bound, coeff_terms=None, bound_terms=None):
        if relation not in _ROW_SIGNS:
            raise ValueError(f"unknown relation {relation!r}")
        object.__setattr__(self, "coeffs", _freeze(coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "bound", float(bound))
        object.__setattr__(self, "coeff_terms", _freeze_terms(coeff_terms))
        object.__setattr__(self, "bound_terms", _bound_terms(bound_terms))

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


@dataclass(frozen=True, eq=False, init=False)
class Condition(_Record):
    """Conjunction of linear constraints; an empty list means `true`."""

    constraints: tuple

    def __init__(self, constraints=()):
        object.__setattr__(self, "constraints", tuple(constraints))

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

    @cached_property
    def halfspaces(self) -> Halfspaces:
        """The rows c . x <= d of the constraints in order (see ``_ROW_SIGNS``), built once.

        A condition with symbolic terms has no numeric rows: it raises ``ValueError``.
        """
        if self.symbols:
            raise ValueError(f"condition references constants {sorted(self.symbols)}; resolve it first")
        rows = [(con, sign) for con in self.constraints for sign in _ROW_SIGNS[con.relation]]
        n = self.constraints[0].coeffs.shape[0] if self.constraints else 0
        coeffs = _freeze(np.reshape([sign * con.coeffs for con, sign in rows], (len(rows), n)))
        nonzero = [np.flatnonzero(row) for row in coeffs]
        return Halfspaces(coeffs, _freeze([sign * con.bound for con, sign in rows]),
                          _freeze([con.relation == "==" for con, _ in rows], bool),
                          _freeze([cols[0] if cols.size == 1 else -1 for cols in nonzero], int))


@dataclass(frozen=True, eq=False, init=False)
class AffineDynamics(_Record):
    """x' = A x + B u + c with optional symbolic-constant overlays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a_terms: dict
    b_terms: dict
    c_terms: dict

    def __init__(self, a, b, c, a_terms=None, b_terms=None, c_terms=None):
        object.__setattr__(self, "a", _freeze(a))
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", _freeze(c))
        object.__setattr__(self, "a_terms", _freeze_terms(a_terms))
        object.__setattr__(self, "b_terms", _freeze_terms(b_terms))
        object.__setattr__(self, "c_terms", _freeze_terms(c_terms))

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


@dataclass(frozen=True, eq=False, init=False)
class ResetMap(_Record):
    """Post-jump update x' = R x + r; ``identity`` builds x' = x."""

    r_matrix: np.ndarray
    r_offset: np.ndarray
    matrix_terms: dict
    offset_terms: dict

    def __init__(self, r_matrix, r_offset, matrix_terms=None, offset_terms=None):
        object.__setattr__(self, "r_matrix", _freeze(r_matrix))
        object.__setattr__(self, "r_offset", _freeze(r_offset))
        object.__setattr__(self, "matrix_terms", _freeze_terms(matrix_terms))
        object.__setattr__(self, "offset_terms", _freeze_terms(offset_terms))

    @classmethod
    def identity(cls, n: int) -> "ResetMap":
        """x' = x over n variables; a reader shares one between the transitions of a parse that assign nothing."""
        return cls(np.eye(n), np.zeros(n))

    @property
    def symbols(self) -> set:
        return set(self.matrix_terms) | set(self.offset_terms)

    @cached_property
    def is_identity(self) -> bool:
        """Whether the reset is x' = x with no symbolic terms, decided once: the record is frozen."""
        return (not self.matrix_terms and not self.offset_terms
                and np.array_equal(self.r_matrix, np.eye(self.r_matrix.shape[0])) and not self.r_offset.any())

    def resolve(self, constants: dict) -> "ResetMap":
        return ResetMap(
            _apply_terms(self.r_matrix, self.matrix_terms, constants),
            _apply_terms(self.r_offset, self.offset_terms, constants),
        )

    def apply(self, x) -> np.ndarray:
        return self.r_matrix @ np.asarray(x, dtype=float) + self.r_offset


@dataclass(frozen=True, eq=False)
class Location(_Record):
    name: str
    invariant: Condition
    dynamics: AffineDynamics



@dataclass(frozen=True, eq=False)
class Transition(_Record):
    source: str
    target: str
    guard: Condition
    reset: ResetMap
    label: str | None = None



@dataclass(frozen=True, eq=False, init=False)
class HybridAutomaton(_Record):
    name: str
    vars: VariableTable
    locations: tuple
    transitions: tuple
    input_range: dict

    def __init__(self, name, vars, locations, transitions, input_range=None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "locations", tuple(locations))
        object.__setattr__(self, "transitions", tuple(transitions))
        object.__setattr__(self, "input_range",
                           {k: (float(v[0]), float(v[1])) for k, v in dict(input_range).items()} if input_range else {})

    def location(self, name: str) -> Location:
        for loc in self.locations:
            if loc.name == name:
                return loc
        raise KeyError(name)

    def location_names(self) -> tuple:
        return tuple(loc.name for loc in self.locations)

    @cached_property
    def outgoing(self) -> dict:
        """Each location's outgoing transitions by location name, in declared order, built once."""
        return {loc.name: tuple(t for t in self.transitions if t.source == loc.name) for loc in self.locations}

    def input_box(self) -> Box | None:
        if not self.vars.input_vars:
            return None
        lo = np.array([self.input_range[v][0] for v in self.vars.input_vars])
        hi = np.array([self.input_range[v][1] for v in self.vars.input_vars])
        return Box(lo, hi)

    @cached_property
    def resolved(self) -> "HybridAutomaton":
        """Fold symbolic constant references into plain numbers.

        The automaton is frozen, so the fold runs once and is kept; the
        result resolves to itself. ``bind_constant`` returns a new automaton,
        which resolves afresh.
        """
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
        result.__dict__["resolved"] = result
        return result


@dataclass(frozen=True, eq=False)
class InitialCondition(_Record):
    location: str
    box: Box



@dataclass(frozen=True, eq=False)
class ReachSettings(_Record):
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
        if not math.isfinite(self.horizon / self.step):  # flowpipe takes int(remaining / step) steps
            raise ValueError(f"step {self.step!r} is too small for horizon {self.horizon!r}: horizon / step overflows")
        if isinstance(self.max_jumps, bool) or self.max_jumps % 1 != 0 or self.max_jumps < 0:
            raise ValueError(f"max_jumps must be an integer >= 0, not {self.max_jumps!r}")
        object.__setattr__(self, "max_jumps", int(self.max_jumps))
        if self.max_jumps >= 1 << 64:  # past what the JSON writer spells
            raise ValueError(f"max_jumps must be below 2**64, not {self.max_jumps}")
        if self.output_vars is not None:
            object.__setattr__(self, "output_vars", tuple(self.output_vars))



@dataclass(frozen=True, eq=False)
class ModelBundle(_Record):
    """Automaton plus the settings and initial set it ships with."""

    automaton: HybridAutomaton
    settings: ReachSettings
    initial: InitialCondition

    @cached_property
    def resolved(self) -> "ModelBundle":
        """The bundle with its automaton and forbidden set resolved by the same constants, built once."""
        automaton = self.automaton.resolved
        settings = self.settings
        if settings.forbidden is not None:
            settings = replace(settings, forbidden=settings.forbidden.resolve(automaton.vars.constants))
        result = ModelBundle(automaton, settings, self.initial)
        result.__dict__["resolved"] = result
        return result


@dataclass(frozen=True)
class Defect:
    code: str
    message: str

    def __str__(self):
        return f"[{self.code}] {self.message}"


def _all_finite(arrays) -> bool:
    """Whether every entry of the arrays is finite: one numpy check over their entries stacked flat."""
    return bool(np.isfinite(np.concatenate([a.ravel() for a in arrays] + [np.empty(0)])).all())


def _dynamics_terms(dyn: AffineDynamics) -> list:
    return [*dyn.a_terms.values(), *dyn.b_terms.values(), *dyn.c_terms.values()]


def _reset_terms(reset: ResetMap) -> list:
    return [*reset.matrix_terms.values(), *reset.offset_terms.values()]


def condition_defects(cond: Condition | None, table: VariableTable, where: str) -> list:
    """The defects of a condition over ``table``'s state variables and constants, each message led by
    ``where``: a constraint over the wrong number of variables, with a non-finite entry, with no
    variable term or naming an undeclared constant. ``None``, no condition, has none."""
    defects, n = [], table.n
    for con in cond.constraints if cond is not None else ():
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
            if sym not in table.constants:
                defects.append(Defect("unknown-symbol", f"{where}: references undeclared constant {sym!r}"))
    return defects


def validate(automaton: HybridAutomaton, forbidden: Condition | None = None) -> tuple:
    """The tuple of the automaton's structural defects; an empty one means well-formed.

    Defects are data, not exceptions: dimension mismatches, dangling
    location names, duplicate names, non-finite entries, and references to
    undeclared constants are all returned, also for a ``forbidden`` set.
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
        defects += condition_defects(loc.invariant, vt, f"location {loc.name!r} invariant")

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
        defects += condition_defects(tr.guard, vt, f"{where} guard")
    defects += condition_defects(forbidden, vt, "forbidden set")

    return tuple(defects)


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
