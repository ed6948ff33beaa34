"""Shared helpers for the test suite."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from hyra.errors import DimensionMismatch
from hyra.ir import (
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
)
from hyra.sets import Box

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


def merge_overflow_bundle() -> ModelBundle:
    """Frozen x in [-0.95e308, 0.8e308] jumps from a to b through x := x and x := x + 1e307.

    The two successors are close enough to merge, but their hull is too wide
    for its center and radius to be floats.
    """
    table = VariableTable(("x",))
    locations = (Location("a", Condition(), AffineDynamics.zero(1)),
                 Location("b", Condition(), AffineDynamics.zero(1)))
    transitions = (Transition("a", "b", Condition(), ResetMap.identity(1)),
                   Transition("a", "b", Condition(), ResetMap([[1.0]], [1e307])))
    settings = ReachSettings(0.3, 0.1, 1, None, None, True)
    automaton = HybridAutomaton("merge-overflow", table, locations, transitions)
    return ModelBundle(automaton, settings, InitialCondition("a", Box([-0.95e308], [0.8e308])))


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
