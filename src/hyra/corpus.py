"""Builders for the four built-in benchmark models.

Each builder returns a complete ModelBundle (automaton + reach settings +
initial set) and validates cleanly. Matrix-valued benchmarks load their
coefficients from the transcription files under data/, which record the
printed figures entry-by-entry together with the documented reading
decisions, so a transcription correction is a one-line diff there.

Tank flow rates and switching thresholds are corpus parameters chosen so
the default run stays in sensible ranges (verified by the test suite), not
claims about the source material.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

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
    bind_constant,
)
from .sets import Box

GRAVITY = 9.81


class BenchmarkId(str, Enum):
    BOUNCING_BALL2 = "bouncing-ball"
    PLATOON6 = "platoon6"
    TANK3 = "tank3"
    LINSWITCH4 = "linswitch4"


_ALIASES = {
    "ball": BenchmarkId.BOUNCING_BALL2,
    "bouncing-ball": BenchmarkId.BOUNCING_BALL2,
    "bouncingball2": BenchmarkId.BOUNCING_BALL2,
    "platoon": BenchmarkId.PLATOON6,
    "platoon6": BenchmarkId.PLATOON6,
    "tank": BenchmarkId.TANK3,
    "tank3": BenchmarkId.TANK3,
    "linswitch": BenchmarkId.LINSWITCH4,
    "linswitch4": BenchmarkId.LINSWITCH4,
}


def benchmark_from_name(name: str) -> BenchmarkId:
    key = name.strip().lower()
    if key not in _ALIASES:
        known = ", ".join(sorted(set(a.value for a in _ALIASES.values())))
        raise KeyError(f"unknown benchmark {name!r}; known: {known}")
    return _ALIASES[key]


def load_transcription(name: str) -> dict:
    text = resources.files("hyra.data").joinpath(f"{name}_transcription.json").read_text()
    return json.loads(text)


def _axis_constraint(n: int, index: int, relation: str, bound: float) -> LinearConstraint:
    coeffs = np.zeros(n)
    coeffs[index] = 1.0
    return LinearConstraint(coeffs, relation, bound)


# ---------------------------------------------------------------------------
# Two bouncing balls


def build_bouncing_ball(restitution: float = 0.75) -> ModelBundle:
    """Two independent identical balls in one 4-d automaton (x, v, x1, v1).

    One location with invariant x >= 0 and x1 >= 0; one transition per ball
    with guard "height zero, moving down" and reset v := -c*v where c stays
    a symbolic constant bound to ``restitution``. Both balls start at rest
    from heights in [10, 10.2].
    """
    if not 0.0 <= restitution <= 1.0:
        raise ValueError("restitution must lie in [0, 1]")

    table = VariableTable(("x", "v", "x1", "v1"), (), {"c": restitution})
    n = 4
    a = np.zeros((n, n))
    a[0, 1] = 1.0
    a[2, 3] = 1.0
    c = np.array([0.0, -GRAVITY, 0.0, -GRAVITY])
    dynamics = AffineDynamics(a, np.zeros((n, 0)), c)
    invariant = Condition(
        (
            _axis_constraint(n, 0, ">=", 0.0),
            _axis_constraint(n, 2, ">=", 0.0),
        )
    )
    location = Location("always", invariant, dynamics)

    def bounce(pos: int, vel: int, label: str) -> Transition:
        guard = Condition(
            (
                _axis_constraint(n, pos, "==", 0.0),
                _axis_constraint(n, vel, "<=", 0.0),
            )
        )
        r_matrix = np.eye(n)
        r_matrix[vel, vel] = 0.0
        term = np.zeros((n, n))
        term[vel, vel] = -1.0
        reset = ResetMap(r_matrix, np.zeros(n), {"c": term}, {})
        return Transition("always", "always", guard, reset, label)

    automaton = HybridAutomaton(
        "bouncing_ball_2",
        table,
        (location,),
        (bounce(0, 1, "bounce"), bounce(2, 3, "bounce1")),
    )
    # One jump per path: box-hull window aggregation provably overshoots the
    # 10.7 velocity threshold from the second bounce on (hulling a crossing
    # window decorrelates height from speed by the initial spread, and the
    # corner of that box rebounds above 10.7 at any step size), so deeper
    # exploration can never prove the stated bad set unreachable.
    settings = ReachSettings(
        horizon=40.0,
        step=0.01,
        max_jumps=1,
        forbidden=Condition((_axis_constraint(n, 1, ">=", 10.7),)),
        output_vars=("x", "v"),
        fixpoint_check=True,
    )
    initial = InitialCondition("always", Box([10.0, 0.0, 10.0, 0.0], [10.2, 0.0, 10.2, 0.0]))
    return ModelBundle(automaton, settings, initial)


# ---------------------------------------------------------------------------
# Six-vehicle platoon


def _platoon_matrices() -> tuple:
    data = load_transcription("platoon")

    def read(mode: dict) -> tuple:
        rows = mode["rows"][:18]
        a = np.zeros((18, 18))
        b = np.zeros((18, 1))
        for i, row in enumerate(rows):
            for j, value in enumerate(row):
                if j < 18:
                    a[i, j] = value
                elif j == 18:
                    b[i, 0] = value
                # columns beyond 19 stay recorded in the file only
        return a, b

    a_comm, b_comm = read(data["communication"])
    a_nocomm, b_nocomm = read(data["no_communication"])
    return a_comm, b_comm, a_nocomm, b_nocomm, tuple(data["state_order"])


def build_platoon(bind_lead_accel: bool = True, switching: str = "spontaneous") -> ModelBundle:
    """Two-mode 18-d platoon: communication intact (q_c) vs disrupted (q_n).

    Switching is spontaneous (guard-free transitions) by default; the
    "clock" variant adds a clock variable with a 2 s dwell guard. The lead
    acceleration input is bound to zero unless bind_lead_accel=False.
    """
    if switching not in ("spontaneous", "clock"):
        raise ValueError("switching must be 'spontaneous' or 'clock'")
    a_comm, b_comm, a_nocomm, b_nocomm, state_order = _platoon_matrices()
    clock = switching == "clock"
    state_vars = state_order + (("clk",) if clock else ())
    n = len(state_vars)
    table = VariableTable(state_vars, ("aL",), {})

    def pad(a: np.ndarray, b: np.ndarray) -> tuple:
        if not clock:
            return a, b
        a2 = np.zeros((n, n))
        a2[:18, :18] = a
        b2 = np.zeros((n, 1))
        b2[:18] = b
        return a2, b2

    a_c, b_c = pad(a_comm, b_comm)
    a_n, b_n = pad(a_nocomm, b_nocomm)
    drift = np.zeros(n)
    if clock:
        drift[18] = 1.0  # clk' = 1

    loc_c = Location("q_c", Condition(), AffineDynamics(a_c, b_c, drift))
    loc_n = Location("q_n", Condition(), AffineDynamics(a_n, b_n, drift))

    if clock:
        dwell_guard = Condition((_axis_constraint(n, 18, ">=", 2.0),))
        reset_m = np.eye(n)
        reset_m[18, 18] = 0.0
        reset = ResetMap(reset_m, np.zeros(n))
        transitions = (
            Transition("q_c", "q_n", dwell_guard, reset, "drop"),
            Transition("q_n", "q_c", dwell_guard, reset, "restore"),
        )
    else:
        transitions = (
            Transition("q_c", "q_n", Condition(), ResetMap.identity(n), "drop"),
            Transition("q_n", "q_c", Condition(), ResetMap.identity(n), "restore"),
        )

    automaton = HybridAutomaton(
        "platoon_6", table, (loc_c, loc_n), transitions, {"aL": (0.0, 0.0)}
    )
    if bind_lead_accel:
        automaton = bind_constant(automaton, "aL", 0.0)

    forbidden = Condition((_axis_constraint(n, 0, ">=", 1.7),))
    settings = ReachSettings(
        horizon=12.0,
        step=0.02,
        max_jumps=2,
        forbidden=forbidden,
        output_vars=("e1", "e1dot"),
        fixpoint_check=True,
    )
    lo = np.full(n, 0.9)
    hi = np.full(n, 1.1)
    if clock:
        lo[18] = hi[18] = 0.0
    initial = InitialCondition("q_c", Box(lo, hi))
    return ModelBundle(automaton, settings, initial)


# ---------------------------------------------------------------------------
# Three-tank system


@dataclass(frozen=True)
class TankFlows:
    """Constant flow rates; all must be positive."""

    q0: float = 0.10   # continuous inflow into tank 1
    q1: float = 0.15   # valve1-gated inflow into tank 1
    qa: float = 0.20   # tank 1 -> tank 2 drain
    qb: float = 0.10   # pump outflow from tank 2
    q2: float = 0.15   # valve2-gated drain from tank 2
    qc: float = 0.08   # valve3-gated tank 2 -> tank 3 drain


# Valve toggle thresholds (corpus parameters; see module docstring).
_TANK_V1_ON = 0.4    # valve1 opens when tank 1 drops to this level
_TANK_V1_OFF = 0.55  # valve1 closes when tank 1 rises back to this level
_TANK_V2_ON = 0.6    # valve2 opens when tank 2 reaches this level
_TANK_V2_OFF = 0.45
_TANK_V3_ON = 0.5    # valve3 opens when tank 2 reaches this level
_TANK_V3_OFF = 0.35


def build_tank(flows: TankFlows = TankFlows()) -> ModelBundle:
    """Eight-mode (2^3 valve states) three-tank automaton.

    Level dynamics per mode, with [vi] = 1 when valve i is open:
        x1' = Q0 + [v1] Q1 - QA
        x2' = QA - QB - [v2] Q2 - [v3] QC
        x3' = [v3] QC
    Valves 1 and 2 toggle on their own tank's level, valve 3 on tank 2's
    level. Flow rates stay symbolic constants in the model.
    """
    values = {"Q0": flows.q0, "Q1": flows.q1, "QA": flows.qa, "QB": flows.qb, "Q2": flows.q2, "QC": flows.qc}
    for name, value in values.items():
        if value <= 0.0:
            raise ValueError(f"flow coefficient {name} must be positive")
    n = 3
    table = VariableTable(("x1", "x2", "x3"), (), values)

    def mode_name(v1: bool, v2: bool, v3: bool) -> str:
        return "_".join("on" if v else "off" for v in (v1, v2, v3))

    def dynamics(v1: bool, v2: bool, v3: bool) -> AffineDynamics:
        c_terms: dict = {}

        def add(sym: str, row: int, sign: float):
            c_terms.setdefault(sym, np.zeros(n))[row] += sign

        add("Q0", 0, +1.0)
        if v1:
            add("Q1", 0, +1.0)
        add("QA", 0, -1.0)
        add("QA", 1, +1.0)
        add("QB", 1, -1.0)
        if v2:
            add("Q2", 1, -1.0)
        if v3:
            add("QC", 1, -1.0)
            add("QC", 2, +1.0)
        return AffineDynamics(np.zeros((n, n)), np.zeros((n, 0)), np.zeros(n), {}, {}, c_terms)

    def invariant(v1: bool, v2: bool, v3: bool) -> Condition:
        cons = [
            _axis_constraint(n, 0, "<=" if v1 else ">=", _TANK_V1_OFF if v1 else _TANK_V1_ON),
            _axis_constraint(n, 1, ">=" if v2 else "<=", _TANK_V2_OFF if v2 else _TANK_V2_ON),
            _axis_constraint(n, 1, ">=" if v3 else "<=", _TANK_V3_OFF if v3 else _TANK_V3_ON),
        ]
        return Condition(tuple(cons))

    states = [(v1, v2, v3) for v1 in (False, True) for v2 in (False, True) for v3 in (False, True)]
    locations = tuple(Location(mode_name(*s), invariant(*s), dynamics(*s)) for s in states)

    transitions = []
    for v1, v2, v3 in states:
        src = mode_name(v1, v2, v3)
        toggles = (
            # (toggled valve state, guard index, relation, bound)
            ((not v1, v2, v3), 0, ">=" if v1 else "<=", _TANK_V1_OFF if v1 else _TANK_V1_ON),
            ((v1, not v2, v3), 1, "<=" if v2 else ">=", _TANK_V2_OFF if v2 else _TANK_V2_ON),
            ((v1, v2, not v3), 1, "<=" if v3 else ">=", _TANK_V3_OFF if v3 else _TANK_V3_ON),
        )
        for i, (succ, idx, relation, bound) in enumerate(toggles):
            guard = Condition((_axis_constraint(n, idx, relation, bound),))
            transitions.append(
                Transition(src, mode_name(*succ), guard, ResetMap.identity(n), f"valve{i + 1}")
            )

    automaton = HybridAutomaton("tank_3", table, locations, tuple(transitions))
    settings = ReachSettings(
        horizon=5.0,
        step=0.1,
        max_jumps=8,
        forbidden=Condition((_axis_constraint(n, 2, "==", -0.7),)),
        output_vars=("x2", "x3"),
        fixpoint_check=True,
    )
    initial = InitialCondition("off_off_off", Box([0.48, 0.23, 0.18], [0.52, 0.27, 0.22]))
    return ModelBundle(automaton, settings, initial)


# ---------------------------------------------------------------------------
# Four-dimensional linear switching system


# Mode-exit thresholds on x1, read off seeded simulations of the transcribed
# dynamics (the switching logic of the source is heuristic).
_LINSWITCH_GUARDS = (
    ("q1", "q2", "<=", -0.3),
    ("q2", "q3", "<=", -0.6),
    ("q3", "q4", "<=", -1.0),
    ("q4", "q1", ">=", 0.5),
)

_LINSWITCH_INPUT_RANGE = (-0.1, 0.1)


def build_linswitch() -> ModelBundle:
    """Four stable-in-intent modes cycling on x1 threshold crossings.

    Matrices come from the transcription file (none is actually Hurwitz as
    printed; the recorded spectral abscissas pin that finding). The shared
    input column drives all modes, with u ranging in a small interval.
    """
    data = load_transcription("linswitch")
    n = 4
    table = VariableTable(("x1", "x2", "x3", "x4"), ("u",))
    b = np.array(data["input_column_used"], dtype=float).reshape(n, 1)
    locations = []
    for mode in ("a1", "a2", "a3", "a4"):
        a = np.array(data[mode], dtype=float)
        locations.append(
            Location(f"q{mode[1]}", Condition(), AffineDynamics(a, b, np.zeros(n)))
        )
    transitions = tuple(
        Transition(src, dst, Condition((_axis_constraint(n, 0, relation, bound),)),
                   ResetMap.identity(n), f"to_{dst}")
        for src, dst, relation, bound in _LINSWITCH_GUARDS
    )
    automaton = HybridAutomaton(
        "linear_switch_4", table, tuple(locations), transitions, {"u": _LINSWITCH_INPUT_RANGE}
    )
    settings = ReachSettings(
        horizon=1.2,
        step=0.004,
        max_jumps=4,
        forbidden=None,
        output_vars=("x1", "x2"),
        fixpoint_check=True,
    )
    initial = InitialCondition("q1", Box([0.95, 0.95, 0.95, 0.95], [1.05, 1.05, 1.05, 1.05]))
    return ModelBundle(automaton, settings, initial)


# ---------------------------------------------------------------------------


_BUILDERS = {
    BenchmarkId.BOUNCING_BALL2: build_bouncing_ball,
    BenchmarkId.PLATOON6: build_platoon,
    BenchmarkId.TANK3: build_tank,
    BenchmarkId.LINSWITCH4: build_linswitch,
}


def build(benchmark: BenchmarkId) -> ModelBundle:
    return _BUILDERS[benchmark]()


def all_benchmarks() -> tuple:
    return tuple(BenchmarkId)
