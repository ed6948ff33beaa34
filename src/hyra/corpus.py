"""Builders for the four built-in benchmark models.

Each builder takes no arguments and returns the shipped ModelBundle
(automaton + reach settings + initial set), which validates cleanly; vary
one with ``ir.bind_constant`` on its symbolic constants (the ball's ``c``,
the tank's ``Q0``..``QC``). Invariants, guards, forbidden sets, flows and
resets are stated in the condition, flow and assignment syntax of the
SpaceEx XML and read through the same codec as ``parse_spaceex``:
``parse_condition``, ``spaceex.parse_flow`` and ``spaceex.parse_assignment``.
Matrix-valued benchmarks load their coefficients from the transcription
files under data/, which record the printed figures entry-by-entry together
with the documented reading decisions, so a transcription correction is a
one-line diff there.

Tank flow rates and switching thresholds are corpus values chosen so the
shipped run stays in sensible ranges (verified by the test suite), not
claims about the source material.
"""

from __future__ import annotations

import json
from enum import Enum
from importlib import resources

import numpy as np

from .expressions import parse_condition
from .ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    Location,
    ModelBundle,
    ReachSettings,
    ResetMap,
    Transition,
    VariableTable,
    bind_constant,
)
from .sets import Box
from .spaceex import parse_assignment, parse_flow

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
    dynamics = parse_flow(f"x' == v & v' == {-GRAVITY} & x1' == v1 & v1' == {-GRAVITY}", table)
    location = Location("always", parse_condition("x >= 0 & x1 >= 0", table), dynamics)

    def bounce(pos: str, vel: str, label: str) -> Transition:
        guard = parse_condition(f"{pos} == 0 & {vel} <= 0", table)
        return Transition("always", "always", guard, parse_assignment(f"{vel} := -c*{vel}", table), label)

    automaton = HybridAutomaton("bouncing_ball_2", table, (location,),
                                (bounce("x", "v", "bounce"), bounce("x1", "v1", "bounce1")))
    # One jump per path: at max_jumps 2 and step 0.01 the margin to v >= 10.7
    # is -0.1945, since hulling a crossing window decorrelates height from
    # speed by the initial spread. The loss is per setting, not a limit of
    # deeper exploration: the initial box split 2x2 on x and x1 at step 0.001
    # is SafeProved in every part at max_jumps 2, 4 and 6 (worst margin +0.0169).
    settings = ReachSettings(horizon=40.0, step=0.01, max_jumps=1, forbidden=parse_condition("v >= 10.7", table),
                             output_vars=("x", "v"))
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
    table = VariableTable(state_vars, ("aL",))

    def location(name: str, mode: str) -> Location:
        rows = np.array(data[mode]["rows"], dtype=float)
        return Location(name, Condition(), AffineDynamics(rows[:, :n], rows[:, n:n + 1], np.zeros(n)))

    automaton = HybridAutomaton(
        "platoon_6",
        table,
        (location("q_c", "communication"), location("q_n", "no_communication")),
        (Transition("q_c", "q_n", Condition(), ResetMap.identity(n), "drop"),
         Transition("q_n", "q_c", Condition(), ResetMap.identity(n), "restore")),
        {"aL": (0.0, 0.0)},
    )
    settings = ReachSettings(horizon=12.0, step=0.02, max_jumps=2, forbidden=parse_condition("e1 >= 1.7", table),
                             output_vars=("e1", "e1dot"))
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


# Each mode's level dynamics, named by the states of valves 1, 2 and 3, in location order.
_TANK_MODES = {
    "off_off_off": "x1' == Q0 - QA & x2' == QA - QB & x3' == 0",
    "off_off_on": "x1' == Q0 - QA & x2' == QA - QB - QC & x3' == QC",
    "off_on_off": "x1' == Q0 - QA & x2' == QA - QB - Q2 & x3' == 0",
    "off_on_on": "x1' == Q0 - QA & x2' == QA - QB - Q2 - QC & x3' == QC",
    "on_off_off": "x1' == Q0 + Q1 - QA & x2' == QA - QB & x3' == 0",
    "on_off_on": "x1' == Q0 + Q1 - QA & x2' == QA - QB - QC & x3' == QC",
    "on_on_off": "x1' == Q0 + Q1 - QA & x2' == QA - QB - Q2 & x3' == 0",
    "on_on_on": "x1' == Q0 + Q1 - QA & x2' == QA - QB - Q2 - QC & x3' == QC",
}

# One row per valve: the level that switches it, then its invariant's (relation, bound) while it
# is open and while it is closed. Its guard is that bound with the relation reversed.
_TANK_VALVES = (
    ("x1", ("<=", _TANK_V1_OFF), (">=", _TANK_V1_ON)),
    ("x2", (">=", _TANK_V2_OFF), ("<=", _TANK_V2_ON)),
    ("x2", (">=", _TANK_V3_OFF), ("<=", _TANK_V3_ON)),
)


def build_tank() -> ModelBundle:
    """Eight-mode (2^3 valve states) three-tank automaton.

    Each mode's flow is its text in ``_TANK_MODES``; each valve's invariants
    and guards come from its row of ``_TANK_VALVES``. Valves 1 and 2 toggle
    on their own tank's level, valve 3 on tank 2's level. Flow rates stay
    symbolic constants in the model.
    """
    table = VariableTable(("x1", "x2", "x3"), (), _TANK_FLOWS)
    identity = ResetMap.identity(table.n)
    locations, transitions = [], []
    for mode, flow in _TANK_MODES.items():
        states = mode.split("_")
        sides = [(level, *(when_open if state == "on" else when_closed))
                 for state, (level, when_open, when_closed) in zip(states, _TANK_VALVES)]
        invariant = " & ".join(f"{level} {relation} {bound}" for level, relation, bound in sides)
        locations.append(Location(mode, parse_condition(invariant, table), parse_flow(flow, table)))
        for i, (level, relation, bound) in enumerate(sides):
            target = "_".join(states[:i] + ["off" if states[i] == "on" else "on"] + states[i + 1:])
            guard = parse_condition(f"{level} {'>=' if relation == '<=' else '<='} {bound}", table)
            transitions.append(Transition(mode, target, guard, identity, f"valve{i + 1}"))

    automaton = HybridAutomaton("tank_3", table, locations, transitions)
    settings = ReachSettings(horizon=5.0, step=0.1, max_jumps=8, forbidden=parse_condition("x3 == -0.7", table),
                             output_vars=("x2", "x3"))
    initial = InitialCondition("off_off_off", Box([0.48, 0.23, 0.18], [0.52, 0.27, 0.22]))
    return ModelBundle(automaton, settings, initial)


# ---------------------------------------------------------------------------
# Four-dimensional linear switching system


# Mode-exit thresholds on x1, read off seeded simulations of the transcribed
# dynamics (the switching logic of the source is heuristic).
_LINSWITCH_GUARDS = (
    ("q1", "q2", "x1 <= -0.3"),
    ("q2", "q3", "x1 <= -0.6"),
    ("q3", "q4", "x1 <= -1"),
    ("q4", "q1", "x1 >= 0.5"),
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
    locations = tuple(Location(f"q{mode[1]}", Condition(), AffineDynamics(data[mode], b, np.zeros(n)))
                      for mode in ("a1", "a2", "a3", "a4"))
    transitions = tuple(
        Transition(src, dst, parse_condition(guard, table), ResetMap.identity(n), f"to_{dst}")
        for src, dst, guard in _LINSWITCH_GUARDS
    )
    automaton = HybridAutomaton("linear_switch_4", table, locations, transitions, {"u": (-0.1, 0.1)})
    settings = ReachSettings(horizon=1.2, step=0.004, max_jumps=4, output_vars=("x1", "x2"))
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
