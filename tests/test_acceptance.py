"""Acceptance suite: one test per criterion, each printing a PASS line.

Expected values come from closed-form oracles computed in place (impact
times, rebound speeds, accumulation times, e^-1), from the recorded
transcription data, or from structural facts of the fixtures. Tolerances
are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np
import pytest

from hyra.corpus import (
    BenchmarkId,
    build,
    build_bouncing_ball,
    build_linswitch,
    build_platoon,
    build_tank,
    load_transcription,
)
from hyra.flowstar import emit_flowstar
from hyra.interchange import read_json, write_json
from hyra.ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    LinearConstraint,
    Location,
    ModelBundle,
    ReachSettings,
    VariableTable,
)
from hyra.reach import Verdict, reach
from hyra.simulate import Integrator, SimOptions, simulate, step
from hyra.spaceex import emit_spaceex, parse_spaceex

from support import CORPUS_DIR, simulation_inside_flowpipe

GRAVITY = 9.81
RESTITUTION = 0.75


def _ball_forbidden(bound: float) -> Condition:
    coeffs = np.zeros(4)
    coeffs[1] = 1.0
    return Condition((LinearConstraint(coeffs, ">=", bound),))


def test_criterion_1_first_impact_and_rebound():
    bundle = build_bouncing_ball()
    started = time.perf_counter()
    traj = simulate(
        bundle, [10.1, 0.0, 10.1, 0.0], Integrator.HEUN, SimOptions(step=1e-4, horizon=2.0)
    )
    elapsed = time.perf_counter() - started
    impact_oracle = math.sqrt(2 * 10.1 / GRAVITY)
    rebound_oracle = RESTITUTION * math.sqrt(2 * GRAVITY * 10.1)
    impact = traj.events[0].time
    rebound = traj.events[0].post_state[1]
    assert impact == pytest.approx(impact_oracle, abs=1e-6)
    assert rebound == pytest.approx(rebound_oracle, abs=1e-3)
    assert elapsed < 1.0
    print(
        f"PASS criterion 1: first impact {impact:.7f}s (oracle {impact_oracle:.7f}), "
        f"rebound {rebound:.5f} (oracle {rebound_oracle:.5f}), wall {elapsed:.2f}s"
    )


def test_criterion_2_zeno_accumulation_window():
    bundle = build_bouncing_ball()
    for height in (10.0, 10.05, 10.1, 10.15, 10.2):
        traj = simulate(
            bundle, [height, 0.0, height, 0.0], Integrator.HEUN, SimOptions(step=1e-3)
        )
        oracle = math.sqrt(2 * height / GRAVITY) * (1 + RESTITUTION) / (1 - RESTITUTION)
        assert traj.zeno, f"no Zeno flag for height {height}"
        assert 9.99 <= traj.zeno_time <= 10.10
        assert traj.zeno_time == pytest.approx(oracle, abs=1e-3)
        assert traj.times[-1] < 40.0
    print("PASS criterion 2: Zeno accumulation inside [9.99, 10.10] for heights in [10, 10.2]")


def test_criterion_3_ball_safety_thresholds():
    bundle = build_bouncing_ball()
    started = time.perf_counter()
    safe = reach(bundle)
    s = bundle.settings
    tighter = ModelBundle(
        bundle.automaton,
        ReachSettings(s.horizon, s.step, s.max_jumps, _ball_forbidden(10.0), s.output_vars, s.fixpoint_check),
        bundle.initial,
    )
    unsafe = reach(tighter)
    elapsed = time.perf_counter() - started
    assert safe.verdict == Verdict.SAFE_PROVED
    assert unsafe.verdict == Verdict.POSSIBLY_UNSAFE
    assert elapsed < 10.0
    print(
        f"PASS criterion 3: v>=10.7 {safe.verdict.value}, v>=10.0 {unsafe.verdict.value}, "
        f"wall {elapsed:.2f}s"
    )


def test_criterion_4_linear_reach_accuracy():
    from hyra.sets import Box

    table = VariableTable(("x",))
    automaton = HybridAutomaton(
        "decay",
        table,
        (Location("flow", Condition(), AffineDynamics([[-1.0]], np.zeros((1, 0)), [0.0])),),
        (),
    )
    bundle = ModelBundle(
        automaton,
        ReachSettings(1.0, 1e-3, 0, None, None, False),
        InitialCondition("flow", Box([1.0], [1.0])),
    )
    result = reach(bundle)
    seg = [s for s in result.segments if s.time_lo <= 1.0 <= s.time_hi][-1]
    box = seg.box()
    truth = math.exp(-1.0)
    width = box.hi[0] - box.lo[0]
    assert box.lo[0] <= truth <= box.hi[0]
    assert width <= 0.01
    print(f"PASS criterion 4: box at t=1 contains e^-1={truth:.6f}, width {width:.2e} <= 0.01")


def test_criterion_5_integrator_orders():
    decay = AffineDynamics([[-1.0]], np.zeros((1, 0)), [0.0])
    truth = math.exp(-1.0)
    steps = [1e-1, 1e-2, 1e-3, 1e-4]
    slopes = {}
    for kind in (Integrator.EULER, Integrator.HEUN):
        errors = []
        for h in steps:
            x = np.array([1.0])
            for _ in range(round(1.0 / h)):
                x = step(decay, x, (), h, kind)
            errors.append(abs(x[0] - truth))
        slopes[kind] = float(np.polyfit(np.log(steps), np.log(errors), 1)[0])
    assert abs(slopes[Integrator.EULER] - 1.0) <= 0.2
    assert abs(slopes[Integrator.HEUN] - 2.0) <= 0.2

    # Heun on constant acceleration: one second of free fall, exact position
    fall = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, -GRAVITY])
    x = np.array([10.1, 0.0])
    h = 1e-3
    for _ in range(1000):
        x = step(fall, x, (), h, Integrator.HEUN)
    truth_pos = 10.1 - 0.5 * GRAVITY
    rel_err = abs(x[0] - truth_pos) / abs(truth_pos)
    assert rel_err <= 1e-9
    print(
        f"PASS criterion 5: slopes euler {slopes[Integrator.EULER]:.3f}, heun "
        f"{slopes[Integrator.HEUN]:.3f}; free-fall relative error {rel_err:.1e}"
    )


@pytest.mark.parametrize("bench", BenchmarkId, ids=lambda b: b.value)
def test_criterion_6_containment_soundness(bench):
    bundle = build(bench)
    result = reach(bundle)
    checked, violations, first = simulation_inside_flowpipe(bundle, result, n_sims=100, seed=8212)
    assert violations == 0, f"{bench.value}: first violation {first}"
    assert checked > 0
    print(f"PASS criterion 6 [{bench.value}]: {checked} samples from 100 runs inside the flowpipe")


def test_criterion_7_translation_roundtrips_and_goldens():
    started = time.perf_counter()
    for bench in BenchmarkId:
        bundle = build(bench)
        assert parse_spaceex(emit_spaceex(bundle.automaton)) == bundle.automaton
        assert read_json(write_json(bundle)) == bundle
        golden = (CORPUS_DIR / bench.value / "model.model").read_text()
        assert emit_flowstar(bundle) == golden
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"PASS criterion 7: corpus round-trips structural, goldens byte-identical, wall {elapsed:.2f}s")


def test_criterion_8_corpus_structure_matches_source():
    tank = build_tank()
    assert len(tank.automaton.locations) == 8  # 2^3 valve modes
    lin = build_linswitch()
    assert len(lin.automaton.locations) == 4
    assert len(lin.automaton.transitions) == 4
    platoon = build_platoon()
    assert len(platoon.automaton.locations) == 2
    assert platoon.settings.max_jumps == 2
    assert platoon.settings.horizon == 12.0
    ball = build_bouncing_ball()
    assert ball.settings.horizon == 40.0
    assert ball.automaton.vars.constants["c"] == 0.75
    assert ball.automaton.resolved.transitions[0].reset.r_matrix[1, 1] == -0.75
    print("PASS criterion 8: 8 tank modes, 4+4 switching, 2 platoon modes (T=12, jumps=2), ball T=40/c=0.75")


def test_criterion_9_switching_spectra():
    data = load_transcription("linswitch")
    recorded = data["spectral_abscissa"]
    hurwitz = True
    for mode in ("a1", "a2", "a3", "a4"):
        abscissa = float(np.max(np.linalg.eigvals(np.array(data[mode])).real))
        if abscissa >= 0.0:
            hurwitz = False
        # pin the documented transcription outcome either way
        assert abscissa == pytest.approx(recorded[mode], abs=1e-6)
    # The printed matrices are NOT Hurwitz, contradicting the stabilized-by-
    # design description; the recorded abscissas pin that finding.
    assert not hurwitz
    print(
        "PASS criterion 9: transcribed matrices are not Hurwitz "
        f"(abscissas {[round(recorded[m], 4) for m in ('a1', 'a2', 'a3', 'a4')]}); "
        "documented transcription outcome pinned"
    )


def test_criterion_10_platoon_run_budget_and_recorded_verdict():
    bundle = build_platoon()
    assert bundle.settings.step == 0.02
    started = time.perf_counter()
    result = reach(bundle)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    assert result.stats.max_depth <= 2
    assert result.stats.covered_time == pytest.approx(12.0)
    expected = json.loads((CORPUS_DIR / "platoon6" / "expected.json").read_text())
    assert result.verdict.value == expected["verdict"]
    print(
        f"PASS criterion 10: platoon T=12 step=0.02 depth<={result.stats.max_depth}, "
        f"wall {elapsed:.1f}s, verdict {result.verdict.value} as recorded"
    )
