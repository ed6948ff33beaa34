"""Builders for the four built-in benchmark models.

Each builder takes no arguments and returns the shipped ModelBundle
(automaton + reach settings + initial set), which validates cleanly; vary
one with ``ir.bind_constant`` on its symbolic constants (the ball's ``c``,
the tank's ``Q0``..``QC``). Matrix-valued benchmarks load their
coefficients from the transcription files under data/, which record the
printed figures entry-by-entry together with the documented reading
decisions, so a transcription correction is a one-line diff there.

Tank flow rates and switching thresholds are corpus values chosen so the
shipped run stays in sensible ranges (verified by the test suite), not
claims about the source material.
"""

from __future__ import annotations

import json
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
    text = resources.files("hyra.data").joinpath(f"{name}_transcription.json").read_text(encoding="utf-8")
    return json.loads(text)


def _axis_constraint(n: int, index: int, relation: str, bound: float) -> LinearConstraint:
    coeffs = np.zeros(n)
    coeffs[index] = 1.0
    return LinearConstraint(coeffs, relation, bound)


# ---------------------------------------------------------------------------
# Two bouncing balls


def build_bouncing_ball() -> ModelBundle:
    """Two independent identical balls in one 4-d automaton (x, v, x1, v1).

    One location with invariant x >= 0 and x1 >= 0; one transition per ball
    with guard "height zero, moving down" and reset v := -c*v, where the
    restitution c stays a symbolic constant, 0.75. Both balls start at rest
    from heights in [10, 10.2].
    """
    table = VariableTable(("x", "v", "x1", "v1"), (), {"c": 0.75})
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


def build_platoon() -> ModelBundle:
    """Two-mode 18-d platoon: communication intact (q_c) vs disrupted (q_n).

    Switching is spontaneous (guard-free transitions), and the lead
    acceleration input aL is bound to zero. Each mode's A and B are the
    first 19 columns of its transcribed rows; a further column stays
    recorded in the file only.
    """
    data = load_transcription("platoon")
    state_vars = tuple(data["state_order"])
    n = len(state_vars)

    def location(name: str, mode: str) -> Location:
        rows = np.array(data[mode]["rows"], dtype=float)
        return Location(name, Condition(), AffineDynamics(rows[:, :n], rows[:, n:n + 1], np.zeros(n)))

    automaton = HybridAutomaton(
        "platoon_6",
        VariableTable(state_vars, ("aL",)),
        (location("q_c", "communication"), location("q_n", "no_communication")),
        (Transition("q_c", "q_n", Condition(), ResetMap.identity(n), "drop"),
         Transition("q_n", "q_c", Condition(), ResetMap.identity(n), "restore")),
        {"aL": (0.0, 0.0)},
    )
    settings = ReachSettings(
        horizon=12.0,
        step=0.02,
        max_jumps=2,
        forbidden=Condition((_axis_constraint(n, 0, ">=", 1.7),)),
        output_vars=("e1", "e1dot"),
        fixpoint_check=True,
    )
    initial = InitialCondition("q_c", Box(np.full(n, 0.9), np.full(n, 1.1)))
    return ModelBundle(bind_constant(automaton, "aL", 0.0), settings, initial)


# ---------------------------------------------------------------------------
# Three-tank system


# Constant flow rates, the values of the model's symbolic constants.
_TANK_FLOWS = {
    "Q0": 0.10,  # continuous inflow into tank 1
    "Q1": 0.15,  # valve1-gated inflow into tank 1
    "QA": 0.20,  # tank 1 -> tank 2 drain
    "QB": 0.10,  # pump outflow from tank 2
    "Q2": 0.15,  # valve2-gated drain from tank 2
    "QC": 0.08,  # valve3-gated tank 2 -> tank 3 drain
}

# Valve toggle thresholds (corpus values; see module docstring).
_TANK_V1_ON = 0.4    # valve1 opens when tank 1 drops to this level
_TANK_V1_OFF = 0.55  # valve1 closes when tank 1 rises back to this level
_TANK_V2_ON = 0.6    # valve2 opens when tank 2 reaches this level
_TANK_V2_OFF = 0.45
_TANK_V3_ON = 0.5    # valve3 opens when tank 2 reaches this level
_TANK_V3_OFF = 0.35


def build_tank() -> ModelBundle:
    """Eight-mode (2^3 valve states) three-tank automaton.

    Level dynamics per mode, with [vi] = 1 when valve i is open:
        x1' = Q0 + [v1] Q1 - QA
        x2' = QA - QB - [v2] Q2 - [v3] QC
        x3' = [v3] QC
    Valves 1 and 2 toggle on their own tank's level, valve 3 on tank 2's
    level. Flow rates stay symbolic constants in the model.
    """
    n = 3
    table = VariableTable(("x1", "x2", "x3"), (), _TANK_FLOWS)

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
        "linear_switch_4", table, tuple(locations), transitions, {"u": (-0.1, 0.1)}
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
