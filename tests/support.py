"""Shared helpers for the test suite."""

import dataclasses
import json
import math
import re
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from hyra.errors import (
    DimensionMismatch,
    ExpressionSyntaxError,
    HyraError,
    ModelFormatError,
    NonlinearUnsupported,
    UnknownIdentifier,
    UnsupportedFeature,
)
from hyra.ir import (
    AffineDynamics,
    Condition,
    Defect,
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
from hyra.expressions import format_number
from hyra.plot import Projection
from hyra.reach import (
    ReachResult,
    ReachStats,
    Segments,
    Task,
    Termination,
    _fixpoint_covered,
    _merge_level,
    check_safety,
    flowpipe,
    jump_successors,
    safety_margin,
)
from hyra.sets import Box, intersect_condition

REPO_ROOT = Path(__file__).resolve().parents[1]
CORPUS_DIR = REPO_ROOT / "corpus"
SCHEMA_PATH = REPO_ROOT / "src" / "hyra" / "data" / "bundle.schema.json"

# Values the bundle schema admits but the IR rejects, applied to the ball's bundle.
BAD_VALUES = {
    "infinite-bound": lambda d: d["initial"]["box"]["x"].__setitem__(1, float("inf")),
    "empty-box": lambda d: d["initial"]["box"].update(x=[10.2, 10.0]),
    "nan-step": lambda d: d["settings"].update(step=float("nan")),
    "infinite-horizon": lambda d: d["settings"].update(horizon=float("inf")),
    "unknown-location": lambda d: d["initial"].update(location="nowhere"),
}


def bad_value_document(case: str) -> str:
    """The ball's bundle.json with one value changed as ``BAD_VALUES[case]`` says."""
    data = json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())
    BAD_VALUES[case](data)
    return json.dumps(data, indent=2)


def with_leftover_tail(bundle: ModelBundle, tail: float) -> ModelBundle:
    """The bundle with a horizon that ends ``tail`` of a step past a step
    boundary, so every flowpipe that lives to the horizon has a leftover tail."""
    settings = bundle.settings
    horizon = (math.floor(settings.horizon / settings.step) - 1 + tail) * settings.step
    return ModelBundle(bundle.automaton, dataclasses.replace(settings, horizon=horizon), bundle.initial)


def late_entry_bundle(fixpoint: bool = True) -> ModelBundle:
    """L1 is entered at t in [7.9, 10] from L0 and, through L2, at t = 0 with y = 9."""
    table = VariableTable(("x", "y"))
    y_at_most = lambda bound: Condition((LinearConstraint([0.0, 1.0], "<=", bound),))
    wait = AffineDynamics(np.zeros((2, 2)), np.zeros((2, 0)), [0.0, 1.0])
    locations = (Location("L0", y_at_most(10.0), wait),
                 Location("L1", Condition(), AffineDynamics(np.zeros((2, 2)), np.zeros((2, 0)), [1.0, 1.0])),
                 Location("L2", y_at_most(10.0), wait))
    transitions = (
        Transition("L0", "L1", Condition((LinearConstraint([0.0, 1.0], ">=", 8.0),)), ResetMap.identity(2)),
        Transition("L0", "L2", y_at_most(1.0), ResetMap.identity(2)),
        Transition("L2", "L1", y_at_most(1.0), ResetMap(np.diag([1.0, 0.0]), [0.0, 9.0])),
    )
    forbidden = Condition((LinearConstraint([1.0, 0.0], ">=", 5.0),))
    settings = ReachSettings(10.0, 0.1, 2, forbidden, None, fixpoint)
    automaton = HybridAutomaton("late-entry", table, locations, transitions)
    return ModelBundle(automaton, settings, InitialCondition("L0", Box([0.0, 0.0], [0.1, 0.0])))


def revisit_bundle(fixpoint: bool = True) -> ModelBundle:
    """L1 is entered from L0 over t in [0, 10] and, through L2, again at t in [5.5, 5.6].

    The second entry's box and entry window lie inside the first one's, so
    the fixpoint check discards it.
    """
    table = VariableTable(("x", "t"))
    t_rows = lambda *rows: Condition(tuple(LinearConstraint([0.0, 1.0], rel, bound) for rel, bound in rows))
    clock = AffineDynamics(np.zeros((2, 2)), np.zeros((2, 0)), [0.0, 1.0])
    locations = (Location("L0", t_rows(("<=", 10.0)), clock),
                 Location("L1", Condition(), clock),
                 Location("L2", t_rows(("<=", 5.6)), clock))
    transitions = (
        Transition("L0", "L1", Condition(), ResetMap.identity(2)),
        Transition("L0", "L2", t_rows((">=", 5.0), ("<=", 5.5)), ResetMap.identity(2)),
        Transition("L2", "L1", t_rows((">=", 5.5)), ResetMap.identity(2)),
    )
    forbidden = Condition((LinearConstraint([1.0, 0.0], ">=", 5.0),))
    settings = ReachSettings(10.0, 0.1, 2, forbidden, None, fixpoint)
    automaton = HybridAutomaton("revisit", table, locations, transitions)
    return ModelBundle(automaton, settings, InitialCondition("L0", Box([0.0, 0.0], [0.1, 0.0])))


def merge_overflow_bundle(lo: float = -0.95e308, hi: float = 0.8e308) -> ModelBundle:
    """Frozen x in [lo, hi] jumps from a to b through x := x and x := x + 1e307.

    The two successors are close enough to merge. At the default bounds their
    hull [-0.95e308, 0.9e308] is wider than the largest float, so its center
    0.5 (lo + hi) and radius 0.5 (hi - lo) would overflow if computed that way.
    """
    table = VariableTable(("x",))
    locations = (Location("a", Condition(), AffineDynamics.zero(1)),
                 Location("b", Condition(), AffineDynamics.zero(1)))
    transitions = (Transition("a", "b", Condition(), ResetMap.identity(1)),
                   Transition("a", "b", Condition(), ResetMap([[1.0]], [1e307])))
    settings = ReachSettings(0.3, 0.1, 1, None, None, True)
    automaton = HybridAutomaton("merge-overflow", table, locations, transitions)
    return ModelBundle(automaton, settings, InitialCondition("a", Box([lo], [hi])))


def reset_jump_bundle(lo: float, hi: float, scale: float) -> ModelBundle:
    """Frozen x in [lo, hi] jumps at once through x' = scale * x into x >= 0."""
    table = VariableTable(("x",))
    positive = Condition((LinearConstraint([1.0], ">=", 0.0),))
    locations = (Location("a", Condition(), AffineDynamics.zero(1)),
                 Location("b", positive, AffineDynamics.zero(1)))
    jump = Transition("a", "b", Condition(), ResetMap([[scale]], [0.0]))
    automaton = HybridAutomaton("blowup", table, locations, (jump,))
    settings = ReachSettings(0.3, 0.1, 1, None, None, False)
    return ModelBundle(automaton, settings, InitialCondition("a", Box([lo], [hi])))


def group_error_bundle() -> ModelBundle:
    """Two tasks start in b at depth 1: x in [1, 2] and, through x' = 1e300 x, x in [1e300, 2e300].

    In b, x' = x, so the second task's boxes leave the floating-point range
    before the horizon of 20 s, and the jump from b to c, x' = 1e308 x, maps
    the first task's boxes out of it. Task by task, the first task's
    successor fails before the second task's flowpipe runs.
    """
    table = VariableTable(("x",))
    frozen, growth = AffineDynamics.zero(1), AffineDynamics([[1.0]], np.zeros((1, 0)), [0.0])
    locations = (Location("a", Condition(), frozen), Location("b", Condition(), growth),
                 Location("c", Condition(), frozen))
    transitions = (Transition("a", "b", Condition(), ResetMap.identity(1)),
                   Transition("a", "b", Condition(), ResetMap([[1e300]], [0.0])),
                   Transition("b", "c", Condition(), ResetMap([[1e308]], [0.0])))
    settings = ReachSettings(20.0, 0.1, 2, None, None, False)
    automaton = HybridAutomaton("group-error", table, locations, transitions)
    return ModelBundle(automaton, settings, InitialCondition("a", Box([1.0], [2.0])))


# (lo, hi, reset scale, drift of x in a) of boxes whose bounds are finite but
# farther apart than the largest float: the initial set, a guard window, a successor
WIDE_BOXES = {
    "initial": (-1e308, 1e308, 1.0, 0.0),
    # each drifting segment is 1.76e308 wide; the window of all five of them is wider than the float range
    "window": (-0.9e308, 0.85e308, 1.0, 1e307),
    # the reset widens a finite window to finite bounds 1.9e308 apart
    "successor": (-0.9e308, 0.85e308, 1.1, 0.0),
}


def wide_box_bundle(case: str) -> ModelBundle:
    """``reset_jump_bundle`` over 0.5 s, where x drifts in both locations, for a ``WIDE_BOXES`` case."""
    lo, hi, scale, drift = WIDE_BOXES[case]
    bundle = reset_jump_bundle(lo, hi, scale)
    source = Location("a", Condition(), AffineDynamics([[0.0]], np.zeros((1, 0)), [drift]))
    automaton = dataclasses.replace(bundle.automaton, locations=(source, Location("b", Condition(), source.dynamics)))
    settings = dataclasses.replace(bundle.settings, horizon=0.5)
    return ModelBundle(automaton, settings, bundle.initial)


# Coefficient values of generated automata: +-1 (written without a factor),
# integers, decimals and exponents on both sides of format_number's notation switch.
_VALUES = (1.0, -1.0, 2.0, -0.75, 9.81, 1505.0, 1e-05, -2.5e-07, 3e+22, 0.1)
_RELATIONS = ("<=", "<", ">=", ">", "==")
GENERATED_SEEDS = range(30)


def _values(rng, shape, density: float) -> np.ndarray:
    """Entries nonzero with probability ``density``, from ``_VALUES`` or uniform on [-5, 5]."""
    picks = np.where(rng.random(shape) < 0.5, rng.choice(_VALUES, shape), rng.uniform(-5.0, 5.0, shape))
    return np.where(rng.random(shape) < density, picks, 0.0)


def _terms(rng, shape) -> dict:
    """Multipliers of some of the constants ``g`` and ``k``, each with a nonzero entry."""
    terms = {}
    for sym in ("g", "k"):
        if rng.random() < 0.6:
            mult = _values(rng, shape, 0.4)
            mult.flat[rng.integers(mult.size)] = rng.choice(_VALUES)
            terms[sym] = mult
    return terms


def _condition(rng, n: int, rows: int) -> Condition:
    constraints = []
    for _ in range(rows):
        coeffs = _values(rng, n, 0.5)
        coeffs[rng.integers(n)] = rng.choice(_VALUES)
        bound_terms = {sym: float(mult) for sym, mult in _terms(rng, ()).items()}
        constraints.append(LinearConstraint(coeffs, str(rng.choice(_RELATIONS)), float(_values(rng, (), 0.8)),
                                            _terms(rng, n), bound_terms))
    return Condition(tuple(constraints))


def generated_bundle(seed: int) -> ModelBundle:
    """A small seeded automaton with one input and named constants in every coefficient kind.

    1-3 state variables, the input ``u`` and the constants ``g`` and ``k``;
    1-3 locations and 1-3 transitions. The constants appear in A, B and c,
    in reset matrices and offsets, and in the coefficients and bounds of
    invariants, guards and the forbidden set.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    names = tuple(f"x{i}" for i in range(n))
    table = VariableTable(names, ("u",), {"g": float(rng.choice(_VALUES)), "k": float(rng.uniform(-5.0, 5.0))})
    locations = tuple(
        Location(f"q{i}", _condition(rng, n, int(rng.integers(0, 3))),
                 AffineDynamics(_values(rng, (n, n), 0.6), _values(rng, (n, 1), 0.7), _values(rng, n, 0.7),
                                _terms(rng, (n, n)), _terms(rng, (n, 1)), _terms(rng, n)))
        for i in range(int(rng.integers(1, 4)))
    )
    transitions = []
    for _ in range(int(rng.integers(1, 4))):
        source, target = (loc.name for loc in rng.choice(locations, 2))
        if rng.random() < 0.3:
            reset = ResetMap.identity(n)
        else:
            assigned = rng.random(n) < 0.6
            reset = ResetMap(np.where(assigned[:, None], _values(rng, (n, n), 0.6), np.eye(n)),
                             np.where(assigned, _values(rng, n, 0.5), 0.0), _terms(rng, (n, n)), _terms(rng, n))
        label = "jump" if rng.random() < 0.5 else None
        transitions.append(Transition(source, target, _condition(rng, n, int(rng.integers(0, 3))), reset, label))
    lo = rng.uniform(-5.0, 5.0, n)
    horizon = float(rng.uniform(1.0, 10.0))
    settings = ReachSettings(horizon, horizon / int(rng.integers(10, 1000)), int(rng.integers(0, 6)),
                             _condition(rng, n, int(rng.integers(1, 3))) if rng.random() < 0.7 else None,
                             tuple(rng.choice(names, 2)) if rng.random() < 0.5 else None, bool(rng.random() < 0.5))
    initial = InitialCondition(str(rng.choice(locations).name),
                               Box(lo, lo + np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 2.0, n))))
    automaton = HybridAutomaton(f"gen{seed}", table, locations, tuple(transitions),
                                {"u": (-float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))})
    return ModelBundle(automaton, settings, initial)


def spelling_bundle(fixpoint: bool = False) -> ModelBundle:
    """A valid bundle that holds every number and text spelling of the JSON writer.

    Floats on both sides of ``repr``'s notation switches (1e-05, -2.5e-07,
    1e-09, 9.99e-05, 0.0001, 1e+16, 3e+22, 1e15), decimals whose digits
    after a leading 1 or 2 read like a small value (10.00001), the largest
    and the smallest float, -0.0 and 2.0; an integer ``max_jumps``; ``null`` and
    ``true``/``false`` settings; and non-ASCII, astral-plane, control and
    DEL characters, a quote and a backslash in the automaton name, a
    location name and a transition label.
    """
    table = VariableTable(("x", "y"), ("u",), {"big": 1e+16, "tiny": 5e-324})
    dynamics = AffineDynamics([[1e-05, -2.5e-07], [1e-09, 9.99e-05]], [[0.0001], [-0.0]], [1e+16, -3e+22],
                              {"big": [[2.0, 0.0], [0.0, 1e15]]}, {}, {"tiny": [-1e+16, 0.0]})
    invariant = Condition((LinearConstraint([1.7976931348623157e+308, -0.0], "<=", 5e-324),))
    guard = Condition((LinearConstraint([2.0, 1e15], ">=", -2.5e-07, {"tiny": [0.0, 1e-05]}, {"big": 1e-09}),
                       LinearConstraint([-0.0, -1e-05], "==", 3e+22),
                       LinearConstraint([10.00001, -20.00003], "<", 100.00002)))
    locations = (Location("\u00e9tat-\U0001f600\x01", invariant, dynamics),
                 Location("plain", Condition(), AffineDynamics.zero(2, 1)))
    transitions = (
        Transition("plain", "\u00e9tat-\U0001f600\x01", guard, ResetMap([[-0.0, 1.0], [1e-05, 2.0]], [3e+22, -0.0])),
        Transition("\u00e9tat-\U0001f600\x01", "plain", Condition(), ResetMap.identity(2),
                   'saut \u2192 \x1f\x7f "\\ null'),
    )
    settings = ReachSettings(1e15, 1e-05, 7, None, None, fixpoint)
    automaton = HybridAutomaton("r\u00e9sum\u00e9 \U0001d11e\t\x00", table, locations, transitions,
                                {"u": (-9.99e-05, 0.0001)})
    return ModelBundle(automaton, settings, InitialCondition("plain", Box([-0.0, 1e-09], [2.0, 1e+16])))


def validate_reference(automaton: HybridAutomaton, forbidden: Condition | None = None) -> tuple:
    """``hyra.ir.validate`` in its earlier form, one numpy reduction per constraint and per array.

    Kept as the reference that the plain-Python checks must match defect
    for defect, in order.
    """

    def check_condition(defects, cond, n, known_consts, where):
        for con in cond.constraints:
            if con.coeffs.shape != (n,):
                defects.append(Defect("dimension", f"{where}: constraint over {con.coeffs.shape[0]} variables, expected {n}"))
                continue
            if not np.all(np.isfinite(con.coeffs)) or not np.isfinite(con.bound):
                defects.append(Defect("non-finite", f"{where}: constraint has non-finite entries"))
            if not con.coeffs.any() and not con.coeff_terms:
                defects.append(Defect("degenerate-constraint", f"{where}: constraint has no variable term"))
            for sym in con.symbols:
                if sym not in known_consts:
                    defects.append(Defect("unknown-symbol", f"{where}: references undeclared constant {sym!r}"))

    defects = []
    vt = automaton.vars
    n, m = vt.n, vt.m
    consts = set(vt.constants)
    if n == 0:
        defects.append(Defect("no-state", "automaton declares no state variables"))
    seen = set()
    for name in list(vt.state_vars) + list(vt.input_vars) + list(vt.constants):
        if name in seen:
            defects.append(Defect("duplicate-name", f"name {name!r} declared more than once"))
        seen.add(name)
    if set(automaton.input_range) != set(vt.input_vars):
        defects.append(Defect("input-range", "input_range keys do not match declared inputs"))
    for var, (lo, hi) in automaton.input_range.items():
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
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
        for arr in (dyn.a, dyn.b, dyn.c):
            if not np.all(np.isfinite(arr)):
                defects.append(Defect("non-finite", f"location {loc.name!r}: dynamics entry not finite"))
                break
        for sym in dyn.symbols:
            if sym not in consts:
                defects.append(Defect("unknown-symbol", f"location {loc.name!r}: dynamics references undeclared constant {sym!r}"))
        check_condition(defects, loc.invariant, n, consts, f"location {loc.name!r} invariant")
    if not automaton.locations:
        defects.append(Defect("no-location", "automaton has no locations"))
    for i, tr in enumerate(automaton.transitions):
        where = f"transition #{i} ({tr.source}->{tr.target})"
        for end, val in (("source", tr.source), ("target", tr.target)):
            if val not in loc_names:
                defects.append(Defect("dangling-name", f"{where}: {end} {val!r} is not a location"))
        if tr.reset.r_matrix.shape != (n, n) or tr.reset.r_offset.shape != (n,):
            defects.append(Defect("dimension", f"{where}: reset shaped {tr.reset.r_matrix.shape}/{tr.reset.r_offset.shape}"))
        elif not (np.all(np.isfinite(tr.reset.r_matrix)) and np.all(np.isfinite(tr.reset.r_offset))):
            defects.append(Defect("non-finite", f"{where}: reset entry not finite"))
        for sym in tr.reset.symbols:
            if sym not in consts:
                defects.append(Defect("unknown-symbol", f"{where}: reset references undeclared constant {sym!r}"))
        check_condition(defects, tr.guard, n, consts, f"{where} guard")
    if forbidden is not None:
        check_condition(defects, forbidden, n, consts, "forbidden set")
    return tuple(defects)


class SegmentIndex:
    """Fast point-in-flowpipe queries over a segment list."""

    def __init__(self, segments):
        order = sorted(range(len(segments)), key=lambda i: segments[i].time_lo)
        self.time_lo = np.array([segments[i].time_lo for i in order])
        self.time_hi = np.array([segments[i].time_hi for i in order])
        boxes = [segments[i].box() for i in order]
        self.lo = np.array([b.lo for b in boxes])
        self.hi = np.array([b.hi for b in boxes])
        self.max_span = float(np.max(self.time_hi - self.time_lo)) if len(segments) else 0.0

    def covers(self, t: float, state, slack: float = 1e-6) -> bool:
        """True if some segment whose time interval contains t boxes the state."""
        right = np.searchsorted(self.time_lo, t + 1e-12, side="right")
        left = np.searchsorted(self.time_lo, t - self.max_span - 1e-12, side="left")
        if right <= left:
            return False
        sel = slice(left, right)
        time_ok = self.time_hi[sel] >= t - 1e-12
        inside = np.all(state >= self.lo[sel] - slack, axis=1) & np.all(
            state <= self.hi[sel] + slack, axis=1
        )
        return bool(np.any(time_ok & inside))

    def covered(self, times, states, slack: float = 1e-6) -> np.ndarray:
        """``covers`` for every sample at once: the same time window and slack."""
        times = np.asarray(times, dtype=float)
        states = np.asarray(states, dtype=float)
        right = np.searchsorted(self.time_lo, times + 1e-12, side="right")
        left = np.searchsorted(self.time_lo, times - self.max_span - 1e-12, side="left")
        out = np.zeros(len(times), dtype=bool)
        # the k-th candidate segment of every sample not yet covered, k = 0, 1, ...
        for k in range(int(np.max(right - left, initial=0))):
            rows = np.flatnonzero((left + k < right) & ~out)
            seg = left[rows] + k
            x = states[rows]
            out[rows] = (
                (self.time_hi[seg] >= times[rows] - 1e-12)
                & np.all(x >= self.lo[seg] - slack, axis=1)
                & np.all(x <= self.hi[seg] + slack, axis=1)
            )
        return out


def simulation_inside_flowpipe(bundle, result, n_sims: int, seed: int, slack: float = 1e-6):
    """Count containment violations of seeded simulations against a reach result.

    Samples are only checked while the simulation's jump count stays within
    the bundle's jump bound. Returns (checked, violations, first_violation).
    """
    from hyra.simulate import Integrator, SimOptions, sample_initial, simulate

    index = SegmentIndex(result.segments)
    points = sample_initial(bundle.initial.box, n_sims, seed)
    options = SimOptions(step=bundle.settings.step / 10.0)
    checked = 0
    violations = 0
    first = None
    for x0 in points:
        traj = simulate(bundle, x0, Integrator.HEUN, options)
        # events at or before each sample; it never decreases, so the checked samples are a prefix
        jumps = np.searchsorted([e.time for e in traj.events], traj.times, side="right")
        count = int(np.count_nonzero(jumps <= bundle.settings.max_jumps))
        checked += count
        outside = np.flatnonzero(~index.covered(traj.times[:count], traj.states[:count], slack))
        violations += len(outside)
        if first is None and len(outside):
            first = (float(traj.times[outside[0]]), traj.states[outside[0]].copy())
    return checked, violations, first


def support_function(z, direction) -> float:
    """max over the zonotope ``z`` of direction . x."""
    d = np.asarray(direction, dtype=float)
    if d.shape != z.center.shape:
        raise DimensionMismatch("support direction dimension mismatch")
    return float(d @ z.center + np.abs(d @ z.generators).sum())


def box_contains(box, point, slack: float = 0.0) -> bool:
    """Whether ``point`` lies in ``box`` widened by ``slack`` on every side."""
    p = np.asarray(point, dtype=float)
    return bool(np.all(p >= box.lo - slack) and np.all(p <= box.hi + slack))


def sample_zonotope(z, count: int, seed: int) -> np.ndarray:
    """Deterministic interior points of the zonotope ``z``, rows = samples."""
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=(count, z.order))
    return z.center + coeffs @ z.generators.T


# ---------------------------------------------------------------------------
# Reference expression front end: hyra.expressions as it was before its
# tokenizer, nodes and linearization were rebuilt, copied unchanged (frozen
# dataclass nodes, one regex match per token, SymScalar/LinForm arithmetic
# that copies a form at every operator). tests/test_expression_reference.py
# requires the new front end to give the same forms, rows and errors.
# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Ident:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Compare:
    left: object
    relation: str
    right: object


@dataclass(frozen=True)
class Conjunction:
    parts: tuple


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*'*)"
    r"|(?P<op>&&|==|<=|>=|:=|[=<>+\-*/()&])"
    r")"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ExpressionSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, table: VariableTable | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.table = table
        self.known = set(table.all_names()) if table is not None else None

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ExpressionSyntaxError(f"expected {op!r}", pos)
        return self.advance()

    def parse_conjunction(self):
        parts = [self.parse_comparison()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("&", "&&"):
                self.advance()
                parts.append(self.parse_comparison())
            else:
                break
        if len(parts) == 1:
            return parts[0]
        flat = []
        for p in parts:
            flat.extend(p.parts if isinstance(p, Conjunction) else (p,))
        return Conjunction(tuple(flat))

    def parse_comparison(self):
        left = self.parse_sum()
        kind, value, _ = self.peek()
        if kind == "op" and value in ("==", "=", "<=", ">=", "<", ">"):
            self.advance()
            relation = "==" if value in ("==", "=") else value
            right = self.parse_sum()
            return Compare(left, relation, right)
        return left

    def parse_sum(self):
        node = self.parse_product()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("+", "-"):
                self.advance()
                right = self.parse_product()
                node = Add(node, right) if value == "+" else Sub(node, right)
            else:
                break
        return node

    def parse_product(self):
        node = self.parse_unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in ("*", "/"):
                self.advance()
                right = self.parse_unary()
                node = Mul(node, right) if value == "*" else Div(node, right)
            else:
                break
        return node

    def parse_unary(self):
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_unary())
        if kind == "op" and value == "+":
            self.advance()
            return self.parse_unary()
        return self.parse_atom()

    def parse_atom(self):
        kind, value, pos = self.advance()
        if kind == "number":
            return Num(float(value))
        if kind == "ident":
            if self.known is not None:
                base = value.rstrip("'")
                if value not in self.known and base not in self.known:
                    raise UnknownIdentifier(f"unknown identifier {value!r} at position {pos}")
            return Ident(value)
        if kind == "op" and value == "(":
            inner = self.parse_conjunction()
            self.expect_op(")")
            return inner
        raise ExpressionSyntaxError(f"unexpected token {value!r}" if value else "unexpected end of input", pos)


def parse_expression(text: str, table: VariableTable | None = None):
    """Parse expression text into an AST.

    An empty (or whitespace-only) string parses to the trivially true
    condition, represented as an empty Conjunction. Identifiers are checked
    against the table when one is supplied.
    """
    if not text.strip():
        return Conjunction(())
    parser = _Parser(text, table)
    try:
        ast = parser.parse_conjunction()
    except RecursionError as exc:
        raise ExpressionSyntaxError("expression nests too deeply", parser.peek()[2]) from exc
    kind, value, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"trailing input {value!r}", pos)
    return ast


# ---------------------------------------------------------------------------
# Linearization

class SymScalar:
    """A float plus a linear combination of named constants."""

    __slots__ = ("base", "terms")

    def __init__(self, base: float = 0.0, terms: dict | None = None):
        self.base = float(base) + 0.0  # + 0.0 turns -0.0 (from negating 0) into 0.0
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0.0}

    @property
    def is_number(self) -> bool:
        return not self.terms

    def __add__(self, other: "SymScalar") -> "SymScalar":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0.0) + v
        return SymScalar(self.base + other.base, terms)

    def __neg__(self) -> "SymScalar":
        return SymScalar(-self.base, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "SymScalar") -> "SymScalar":
        return self + (-other)

    def mul(self, other: "SymScalar") -> "SymScalar":
        if self.terms and other.terms:
            raise NonlinearUnsupported("product of two symbolic constants is not affine")
        if other.terms:
            self, other = other, self
        scale = other.base
        return SymScalar(self.base * scale, {k: v * scale for k, v in self.terms.items()})


class LinForm:
    """Affine expression: constant part plus per-variable coefficients."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: SymScalar | None = None, coeffs: dict | None = None):
        self.const = const if const is not None else SymScalar()
        self.coeffs = coeffs or {}

    def __add__(self, other: "LinForm") -> "LinForm":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs[k] + v if k in coeffs else v
        return LinForm(self.const + other.const, coeffs)

    def __neg__(self) -> "LinForm":
        return LinForm(-self.const, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "LinForm") -> "LinForm":
        return self + (-other)

    def scaled(self, scalar: SymScalar) -> "LinForm":
        return LinForm(self.const.mul(scalar), {k: v.mul(scalar) for k, v in self.coeffs.items()})


def linear_form(ast, table: VariableTable, allow_inputs: bool = True) -> LinForm:
    """Reduce an arithmetic AST to an affine form over the declared names.

    Constants become symbolic scalar terms; a product of two variable-bearing
    subexpressions (or division by one) raises NonlinearUnsupported.
    """
    try:
        return _linear_form(ast, table, allow_inputs)
    except RecursionError as exc:
        raise UnsupportedFeature("expression nests too deeply to linearize") from exc


def _linear_form(ast, table: VariableTable, allow_inputs: bool) -> LinForm:
    if isinstance(ast, Num):
        return LinForm(SymScalar(ast.value))
    if isinstance(ast, Ident):
        name = ast.name
        if name in table.constants:
            return LinForm(SymScalar(0.0, {name: 1.0}))
        if name in table.state_vars:
            return LinForm(coeffs={name: SymScalar(1.0)})
        if name in table.input_vars:
            if not allow_inputs:
                raise NonlinearUnsupported(f"input {name!r} cannot appear in a constraint")
            return LinForm(coeffs={name: SymScalar(1.0)})
        raise UnknownIdentifier(f"unknown identifier {name!r}")
    if isinstance(ast, Neg):
        return -_linear_form(ast.operand, table, allow_inputs)
    if isinstance(ast, Add):
        return _linear_form(ast.left, table, allow_inputs) + _linear_form(ast.right, table, allow_inputs)
    if isinstance(ast, Sub):
        return _linear_form(ast.left, table, allow_inputs) - _linear_form(ast.right, table, allow_inputs)
    if isinstance(ast, Mul):
        left = _linear_form(ast.left, table, allow_inputs)
        right = _linear_form(ast.right, table, allow_inputs)
        if left.coeffs and right.coeffs:
            raise NonlinearUnsupported("product of two variable expressions is not affine")
        if left.coeffs:
            return left.scaled(right.const)
        return right.scaled(left.const)
    if isinstance(ast, Div):
        left = _linear_form(ast.left, table, allow_inputs)
        right = _linear_form(ast.right, table, allow_inputs)
        if right.coeffs or not right.const.is_number:
            raise NonlinearUnsupported("division is only supported by a numeric literal")
        if right.const.base == 0.0:
            raise NonlinearUnsupported("division by zero")
        return left.scaled(SymScalar(1.0 / right.const.base))
    raise NonlinearUnsupported(f"{type(ast).__name__} is not an arithmetic expression")


def affine_row(form: LinForm, names) -> tuple:
    """``form`` as one dense row over ``names``: (coeffs, coeff_terms, const, const_terms).

    ``coeff_terms`` maps each named constant to its row of multipliers and
    ``const_terms`` to its multiplier of the constant part; a name that
    ``form`` lacks has coefficient 0.
    """
    coeffs = np.zeros(len(names))
    coeff_terms: dict = {}
    for name, scalar in form.coeffs.items():
        i = names.index(name)
        coeffs[i] = scalar.base
        for sym, mult in scalar.terms.items():
            coeff_terms.setdefault(sym, np.zeros(len(names)))[i] = mult
    return coeffs, coeff_terms, form.const.base, form.const.terms


def _stacked_rows(forms: dict, table: VariableTable, names, default: np.ndarray) -> tuple:
    """The ``affine_row`` over ``names`` of each state variable's form in ``forms``, stacked into
    (matrix, matrix terms, vector, vector terms); a variable without a form keeps its row of ``default``."""
    matrix, vector, matrix_terms, vector_terms = default.copy(), np.zeros(table.n), {}, {}
    for var, form in forms.items():
        coeffs, coeff_terms, const, const_terms = affine_row(form, names)
        i = table.state_index(var)
        matrix[i], vector[i] = coeffs, const
        for sym, row in coeff_terms.items():
            matrix_terms.setdefault(sym, np.zeros_like(default))[i] = row
        for sym, mult in const_terms.items():
            vector_terms.setdefault(sym, np.zeros(table.n))[i] = mult
    return matrix, matrix_terms, vector, vector_terms


def dynamics_from_forms(forms: dict, table: VariableTable) -> AffineDynamics:
    """``x' = A x + B u + c`` whose row of each state variable in ``forms`` is its form; other rows are 0."""
    n, names = table.n, table.state_vars + table.input_vars
    ab, ab_terms, c, c_terms = _stacked_rows(forms, table, names, np.zeros((n, len(names))))
    a_terms = {sym: t[:, :n] for sym, t in ab_terms.items() if np.count_nonzero(t[:, :n])}
    b_terms = {sym: t[:, n:] for sym, t in ab_terms.items() if np.count_nonzero(t[:, n:])}
    return AffineDynamics(ab[:, :n], ab[:, n:], c, a_terms, b_terms, c_terms)


def reset_from_forms(forms: dict, table: VariableTable) -> ResetMap:
    """``x' = R x + r`` whose row of each state variable in ``forms`` is its form; other rows keep x."""
    r_matrix, m_terms, r_offset, r_terms = _stacked_rows(forms, table, table.state_vars, np.eye(table.n))
    return ResetMap(r_matrix, r_offset, m_terms, r_terms)


def _constraint_from_compare(cmp: Compare, table: VariableTable) -> LinearConstraint:
    form = linear_form(cmp.left, table, allow_inputs=False) - linear_form(cmp.right, table, allow_inputs=False)
    coeffs, coeff_terms, _, _ = affine_row(form, table.state_vars)
    bound = -form.const
    return LinearConstraint(coeffs, cmp.relation, bound.base, coeff_terms, bound.terms)


def _as_compare(node) -> Compare:
    if not isinstance(node, Compare):
        raise NonlinearUnsupported("expected a comparison, found a bare arithmetic expression")
    return node


def parse_condition(text: str, table: VariableTable) -> Condition:
    """Parse condition text as a conjunction of linear constraints."""
    ast = parse_expression(text, table)
    parts = ast.parts if isinstance(ast, Conjunction) else (ast,)
    return Condition(tuple(_constraint_from_compare(_as_compare(p), table) for p in parts))


# ---------------------------------------------------------------------------
# Reference plot writer: hyra.plot's projection and SVG writer as they were
# before they moved to array passes, copied unchanged (row-by-row cell lists
# and one f-string per rectangle and polyline point). tests/test_plot.py
# requires the new code to give the same projections, bytes and errors.

_CANVAS_W = 800.0
_CANVAS_H = 600.0
_MARGIN = 60.0


def _parse_csv(text: str) -> tuple:
    """The header cells and the data lines of a CSV text; blank lines are skipped."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ModelFormatError("empty CSV input")
    return lines[0].split(","), lines[1:]


def _cells(rows: list, columns) -> list:
    """The text of each of ``columns`` over the data rows, one list per column.

    Each row is split only up to the last of the columns; a row too short
    for one of them raises IndexError.
    """
    split = list(map(str.split, rows, repeat(","), repeat(max(columns) + 1)))
    return [list(map(itemgetter(col), split)) for col in columns]


def _malformed(text: str, columns) -> ModelFormatError:
    """The error naming the first row whose cells in ``columns`` are not all numbers."""
    numbered = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    for number, line in numbered[1:]:
        row = line.split(",")
        if len(row) <= max(columns):
            return ModelFormatError(f"CSV line {number} has {len(row)} cells, too few for its header")
        for col in columns:
            try:
                float(row[col])
            except ValueError:
                return ModelFormatError(f"CSV line {number}: cell {col + 1} is not a number: {row[col]!r}")
    return ModelFormatError("malformed CSV input")


def project_csv(text: str, x_name: str, y_name: str) -> Projection:
    header, rows = _parse_csv(text)
    if header[:4] == ["time_lo", "time_hi", "location", "jump_depth"]:
        try:
            columns = (
                header.index(f"lo_{x_name}"),
                header.index(f"hi_{x_name}"),
                header.index(f"lo_{y_name}"),
                header.index(f"hi_{y_name}"),
            )
        except ValueError as exc:
            raise ModelFormatError(f"variable not present in flowpipe CSV: {exc}") from exc
        try:
            rects = list(zip(*(map(float, cells) for cells in _cells(rows, columns))))
        except (ValueError, IndexError):
            raise _malformed(text, columns) from None
        return Projection("flowpipe", x_name, y_name, rects, [])
    if header[:2] == ["time", "location"] or header[:3] == ["run", "time", "location"]:
        try:
            xi = header.index(x_name)
            yi = header.index(y_name)
        except ValueError as exc:
            raise ModelFormatError(f"variable not present in trajectory CSV: {exc}") from exc
        try:
            runs, xs, ys = _cells(rows, (0, xi, yi))
            pairs = list(zip(map(float, xs), map(float, ys)))
        except (ValueError, IndexError):
            raise _malformed(text, (xi, yi)) from None
        if header[0] != "run":
            return Projection("trajectory", x_name, y_name, [], pairs)
        # multi-run exports break the polyline between runs
        points: list = []
        start = 0
        for _, run in groupby(runs):
            end = start + len(list(run))
            if start:
                points.append(None)
            points.extend(pairs[start:end])
            start = end
        return Projection("trajectory", x_name, y_name, [], points)
    raise ModelFormatError("unrecognized CSV header; expected a flowpipe or trajectory export")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def projection_to_svg(proj: Projection) -> str:
    xs: list = []
    ys: list = []
    for xl, xh, yl, yh in proj.rects:
        xs.extend((xl, xh))
        ys.extend((yl, yh))
    for point in proj.points:
        if point is not None:
            xs.append(point[0])
            ys.append(point[1])
    if not xs:
        xs = [0.0, 1.0]
        ys = [0.0, 1.0]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad_x = 0.05 * (x_max - x_min)
    pad_y = 0.05 * (y_max - y_min)
    x_min -= pad_x
    x_max += pad_x
    y_min -= pad_y
    y_max += pad_y
    sx = (_CANVAS_W - 2 * _MARGIN) / (x_max - x_min)
    sy = (_CANVAS_H - 2 * _MARGIN) / (y_max - y_min)

    def px(x: float) -> float:
        return _MARGIN + (x - x_min) * sx

    def py(y: float) -> float:
        return _CANVAS_H - _MARGIN - (y - y_min) * sy

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS_W)}" height="{int(_CANVAS_H)}" '
        f'viewBox="0 0 {int(_CANVAS_W)} {int(_CANVAS_H)}">',
        f'<rect x="0" y="0" width="{int(_CANVAS_W)}" height="{int(_CANVAS_H)}" fill="white"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_CANVAS_H - _MARGIN)}" x2="{_fmt(_CANVAS_W - _MARGIN)}" '
        f'y2="{_fmt(_CANVAS_H - _MARGIN)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" x2="{_fmt(_MARGIN)}" '
        f'y2="{_fmt(_CANVAS_H - _MARGIN)}" stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(_CANVAS_W / 2)}" y="{_fmt(_CANVAS_H - 15)}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{proj.x_name}</text>',
        f'<text x="18" y="{_fmt(_CANVAS_H / 2)}" text-anchor="middle" font-family="monospace" '
        f'font-size="14" transform="rotate(-90 18 {_fmt(_CANVAS_H / 2)})">{proj.y_name}</text>',
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_CANVAS_H - _MARGIN + 18)}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{format_number(round(x_min, 6))}</text>',
        f'<text x="{_fmt(_CANVAS_W - _MARGIN)}" y="{_fmt(_CANVAS_H - _MARGIN + 18)}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{format_number(round(x_max, 6))}</text>',
        f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(_CANVAS_H - _MARGIN)}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{format_number(round(y_min, 6))}</text>',
        f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(_MARGIN + 4)}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{format_number(round(y_max, 6))}</text>',
    ]
    for xl, xh, yl, yh in proj.rects:
        x = px(xl)
        y = py(yh)
        w = max(px(xh) - px(xl), 0.2)
        h = max(py(yl) - py(yh), 0.2)
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="steelblue" fill-opacity="0.25" stroke="steelblue" stroke-width="0.5"/>'
        )
    if proj.points:
        runs: list = [[]]
        for point in proj.points:
            if point is None:
                runs.append([])
            else:
                runs[-1].append(point)
        for run in runs:
            if not run:
                continue
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in run)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="firebrick" stroke-width="1.2"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_reach(bundle: ModelBundle) -> ReachResult:
    """``reach`` task by task: one ``flowpipe`` per task and, right after it, one
    ``jump_successors`` per outgoing transition.

    This is the exploration loop as it was before ``reach`` ran the tasks of a
    level in groups that share a location; ``reach`` must give the same
    result bit for bit, and raise the same first error.
    """
    bundle = bundle.resolved
    automaton, settings = bundle.automaton, bundle.settings
    defects = validate(automaton, settings.forbidden)
    if defects:
        raise HyraError("bundle does not validate: " + "; ".join(str(d) for d in defects))
    input_box = automaton.input_box()
    locations = {loc.name: loc for loc in automaton.locations}
    stats = ReachStats()
    parts, alpha_max, jump_bound_cut = [], 0.0, False
    processed = {name: [] for name in locations}
    discretized = {}
    level = [Task(bundle.initial.location, bundle.initial.box, 0.0, 0.0)]
    depth = 0
    while level and depth <= settings.max_jumps:
        next_level = []
        for task in level:
            if settings.fixpoint_check and _fixpoint_covered(task, processed[task.location]):
                stats.discarded += 1
                continue
            processed[task.location].append(task)
            pipe = flowpipe(locations[task.location], [task], input_box, settings.step, settings.horizon, depth,
                            discretized=discretized)
            alpha_max = max(alpha_max, pipe.alpha)
            stats.flowpipes += 1
            stats.max_depth = max(stats.max_depth, depth)
            parts.append(pipe.segments)
            if len(pipe.raw) == 0:
                continue
            for transition in automaton.outgoing[task.location]:
                successors, = jump_successors(pipe, transition)
                if not successors:
                    continue
                if depth >= settings.max_jumps:
                    jump_bound_cut = True
                    continue
                for succ, t_entry, w in successors:
                    clamped = intersect_condition(succ, locations[transition.target].invariant)
                    if clamped is not None:
                        next_level.append(Task(transition.target, clamped, t_entry, w + task.window))
        level = _merge_level(next_level, settings.step)
        depth += 1
    segments = Segments.concat(parts)
    slack = max(1e-9, alpha_max)
    verdict, first_violation = check_safety(segments, settings.forbidden, slack)
    margin, margin_segment = safety_margin(segments, settings.forbidden, slack)
    stats.segments = len(segments)
    stats.covered_time = float(segments.time_hi.max()) if len(segments) else 0.0
    if jump_bound_cut:
        stats.termination = Termination.JUMP_BOUND_HIT
    elif stats.discarded:
        stats.termination = Termination.FIXPOINT_REACHED
    return ReachResult(segments, verdict, stats, first_violation, margin, margin_segment)
