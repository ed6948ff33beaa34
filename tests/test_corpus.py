import json

import numpy as np
import pytest

from hyra.config import emit_config
from hyra.corpus import (
    BenchmarkId,
    all_benchmarks,
    benchmark_from_name,
    build,
    build_bouncing_ball,
    build_linswitch,
    build_platoon,
    build_tank,
    load_transcription,
)
from hyra.flowstar import emit_flowstar
from hyra.interchange import read_json, write_json
from hyra.ir import ModelBundle, bind_constant, validate
from hyra.reach import reach
from hyra.simulate import Integrator, SimOptions, simulate
from hyra.spaceex import emit_spaceex, parse_spaceex

from support import CORPUS_DIR


# ---------------------------------------------------------------------------
# bouncing ball


def test_ball_defaults_match_settings():
    bundle = build_bouncing_ball()
    assert bundle.automaton.vars.state_vars == ("x", "v", "x1", "v1")
    assert len(bundle.automaton.locations) == 1
    assert len(bundle.automaton.transitions) == 2
    assert np.array_equal(bundle.initial.box.lo, [10.0, 0.0, 10.0, 0.0])
    assert np.array_equal(bundle.initial.box.hi, [10.2, 0.0, 10.2, 0.0])
    assert bundle.settings.horizon == 40.0
    assert bundle.automaton.vars.constants["c"] == 0.75


def _ball_with_restitution(c: float) -> ModelBundle:
    ball = build_bouncing_ball()
    return ModelBundle(bind_constant(ball.automaton, "c", c), ball.settings, ball.initial)


def test_dead_stop_restitution():
    bundle = _ball_with_restitution(0.0)
    traj = simulate(bundle, [5.0, 0.0, 5.0, 0.0], Integrator.HEUN, SimOptions(step=1e-3, horizon=2.0))
    assert traj.events
    assert traj.events[0].post_state[1] == 0.0


def test_energy_conserving_restitution():
    bundle = _ball_with_restitution(1.0)
    traj = simulate(bundle, [5.0, 0.0, 5.0, 0.0], Integrator.HEUN, SimOptions(step=1e-4, horizon=2.0))
    event = traj.events[0]
    assert abs(event.post_state[1]) == pytest.approx(abs(event.pre_state[1]), rel=1e-9)


# ---------------------------------------------------------------------------
# platoon


def test_platoon_structure():
    bundle = build_platoon()
    automaton = bundle.automaton
    assert len(automaton.locations) == 2
    assert len(automaton.transitions) == 2
    assert automaton.location_names() == ("q_c", "q_n")
    assert automaton.vars.n == 18
    assert bundle.settings.horizon == 12.0
    assert bundle.settings.max_jumps == 2
    assert np.all(bundle.initial.box.lo == 0.9)
    assert np.all(bundle.initial.box.hi == 1.1)


def test_platoon_matrices_follow_the_transcription():
    data = load_transcription("platoon")
    automaton = build_platoon().automaton
    q_c = automaton.location("q_c").dynamics
    assert q_c.a[2, 0] == 1505.0  # as printed, suspect entry included
    assert q_c.a[0, 1] == 1.0
    rows = data["communication"]["rows"]
    assert q_c.a[5, 5] == rows[5][5] == -2.9396


# ---------------------------------------------------------------------------
# tank


def test_tank_has_eight_modes_and_starting_location():
    bundle = build_tank()
    assert len(bundle.automaton.locations) == 8
    assert bundle.initial.location == "off_off_off"
    assert bundle.settings.horizon == 5.0
    assert bundle.settings.step == 0.1
    names = set(bundle.automaton.location_names())
    assert "off_off_off" in names and "on_on_on" in names


def test_tank_topology_all_valves_closed():
    bundle = build_tank()
    dyn = bundle.automaton.location("off_off_off").dynamics
    # x2 row carries the pump outflow but no valve1 inflow
    assert dyn.c_terms["QB"][1] == -1.0
    assert "Q1" not in dyn.c_terms
    assert "Q2" not in dyn.c_terms
    assert "QC" not in dyn.c_terms
    assert dyn.c_terms["QA"][1] == 1.0 and dyn.c_terms["QA"][0] == -1.0


def test_tank_topology_valve_gating():
    bundle = build_tank()
    on_all = bundle.automaton.location("on_on_on").dynamics
    assert on_all.c_terms["Q1"][0] == 1.0
    assert on_all.c_terms["Q2"][1] == -1.0
    assert on_all.c_terms["QC"][1] == -1.0 and on_all.c_terms["QC"][2] == 1.0


def test_tank_default_run_stays_in_range():
    # the advertised property of the default coefficients
    bundle = build_tank()
    traj = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.001))
    assert traj.times[-1] == pytest.approx(5.0)
    assert np.all(traj.states >= -1e-9)
    assert np.all(traj.states <= 1.0 + 1e-9)
    assert len(traj.events) >= 2  # valves actually toggle within the horizon


# ---------------------------------------------------------------------------
# linear switching


def test_linswitch_structure_and_matrix_entry():
    bundle = build_linswitch()
    automaton = bundle.automaton
    assert len(automaton.locations) == 4
    assert len(automaton.transitions) == 4
    assert automaton.location("q1").dynamics.a[0, 0] == -0.8036
    assert automaton.vars.input_vars == ("u",)
    sources = [t.source for t in automaton.transitions]
    targets = [t.target for t in automaton.transitions]
    assert sources == ["q1", "q2", "q3", "q4"]
    assert targets == ["q2", "q3", "q4", "q1"]


def test_linswitch_spectra_pin_the_transcription():
    # None of the printed matrices is Hurwitz; the recorded spectral
    # abscissas pin that reading instead of silently passing a stability
    # assertion that the numbers do not support.
    data = load_transcription("linswitch")
    recorded = data["spectral_abscissa"]
    for mode in ("a1", "a2", "a3", "a4"):
        matrix = np.array(data[mode])
        abscissa = float(np.max(np.linalg.eigvals(matrix).real))
        assert abscissa == pytest.approx(recorded[mode], abs=1e-6)
        assert abscissa > 0.0  # documented finding: not Hurwitz as printed


def test_linswitch_input_column_reading():
    data = load_transcription("linswitch")
    assert len(data["input_column_printed"]) == 5
    assert data["input_column_used"] == [-0.0845, 0, 0, -0.7342]
    b = build_linswitch().automaton.location("q1").dynamics.b
    assert np.array_equal(b[:, 0], [-0.0845, 0.0, 0.0, -0.7342])


# ---------------------------------------------------------------------------
# cross-cutting corpus properties


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_every_builder_validates_clean(bench):
    assert not validate(build(bench).automaton)


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_every_builder_roundtrips(bench):
    bundle = build(bench)
    assert parse_spaceex(emit_spaceex(bundle.automaton)) == bundle.automaton
    assert read_json(write_json(bundle)) == bundle


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_fixtures_are_byte_identical_to_fresh_emission(bench):
    bundle = build(bench)
    root = CORPUS_DIR / bench.value
    assert (root / "model.xml").read_text() == emit_spaceex(bundle.automaton)
    assert (root / "model.model").read_text() == emit_flowstar(bundle)
    assert (root / "bundle.json").read_text() == write_json(bundle)
    expected_cfg = emit_config(
        bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name
    )
    assert (root / "config.cfg").read_text() == expected_cfg


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_recorded_verdicts_match_a_fresh_run(bench):
    bundle = build(bench)
    expected = json.loads((CORPUS_DIR / bench.value / "expected.json").read_text())
    result = reach(bundle)
    stats, violation = result.stats, result.first_violation
    assert {
        "verdict": result.verdict.value,
        "termination": None if stats.termination is None else stats.termination.value,
        "max_depth": stats.max_depth,
        "segments": stats.segments,
        "covered_time": stats.covered_time,
        "first_violation_time": None if violation is None else result.segments[violation].time_lo,
    } == expected


def test_benchmark_aliases():
    assert benchmark_from_name("ball") == BenchmarkId.BOUNCING_BALL2
    assert benchmark_from_name("Tank3") == BenchmarkId.TANK3
    with pytest.raises(KeyError):
        benchmark_from_name("nonesuch")
