import argparse
import json
import os
import subprocess
import sys
import warnings

import pytest

from hyra.cli import build_parser, main
from hyra.corpus import benchmark_from_name, build
from hyra.expressions import format_number
from hyra.interchange import write_json
from hyra.simulate import Integrator, SimOptions, sample_initial, simulate

from support import BAD_VALUES, CORPUS_DIR, REPO_ROOT, bad_value_document, merge_overflow_bundle, wide_box_bundle


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_check_bouncing_ball(capsys):
    code, out, _ = run(capsys, "bench", "bouncing-ball", "check")
    assert code == 0
    assert out.startswith("VERDICT SafeProved ")
    assert "jumps=1" in out and "segments=" in out


def test_translate_matches_golden_flowstar(capsys):
    code, out, _ = run(
        capsys, "translate", str(CORPUS_DIR / "tank3" / "model.xml"), "--to", "flowstar"
    )
    assert code == 0
    assert out == (CORPUS_DIR / "tank3" / "model.model").read_text()


def test_missing_model_is_an_input_error(capsys):
    code, out, err = run(capsys, "reach", "missing.xml")
    assert code == 2
    assert out == ""
    assert "missing.xml" in err


def test_unknown_benchmark_is_an_input_error(capsys):
    code, _, err = run(capsys, "bench", "nonesuch", "check")
    assert code == 2
    assert "nonesuch" in err


def test_reach_writes_csv_and_reports_verdict(tmp_path, capsys):
    out_csv = tmp_path / "pipe.csv"
    code, out, _ = run(
        capsys,
        "reach",
        str(CORPUS_DIR / "tank3" / "model.xml"),
        str(CORPUS_DIR / "tank3" / "config.cfg"),
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert out.startswith("VERDICT SafeProved")
    header = out_csv.read_text().splitlines()[0]
    assert header == "time_lo,time_hi,location,jump_depth,lo_x1,hi_x1,lo_x2,hi_x2,lo_x3,hi_x3"


def test_check_uses_exit_code_for_unsafe(capsys):
    code, out, _ = run(capsys, "bench", "platoon6", "check")
    assert code == 1
    assert out.startswith("VERDICT PossiblyUnsafe")


def test_simulate_writes_runs(tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        str(CORPUS_DIR / "tank3" / "model.xml"),
        "--seeds",
        "3",
        "--seed",
        "7",
        "--out",
        str(out_csv),
    )
    assert code == 0
    assert out.count("RUN ") == 3
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "run,time,location,x1,x2,x3"
    assert {line.split(",")[0] for line in lines[1:]} == {"0", "1", "2"}


@pytest.mark.parametrize("model", ["bouncing-ball", "linswitch4", "platoon6", "tank3"])
def test_simulate_out_file_formats_every_value_like_format_number(model, tmp_path, capsys):
    out_csv = tmp_path / "runs.csv"
    assert run(capsys, "bench", model, "simulate", "--seeds", "3", "--out", str(out_csv))[0] == 0
    bundle = build(benchmark_from_name(model))
    lines = [",".join(("run", "time", "location", *bundle.automaton.vars.state_vars))]
    for index, x0 in enumerate(sample_initial(bundle.initial.box, 3, 0)):
        traj = simulate(bundle, x0, Integrator.HEUN, SimOptions(step=bundle.settings.step / 10.0))
        for t, loc, state in zip(traj.times, traj.locations, traj.states):
            lines.append(",".join([str(index), format_number(t), loc, *map(format_number, state)]))
    assert out_csv.read_text() == "\n".join(lines) + "\n"


def test_bench_simulate_matches_simulate_on_the_bundle_file(tmp_path, capsys):
    outputs = []
    for argv in (
        ("bench", "tank3", "simulate"),
        ("simulate", str(CORPUS_DIR / "tank3" / "bundle.json")),
    ):
        out_csv = tmp_path / f"{argv[0]}.csv"
        code, out, _ = run(capsys, *argv, "--seeds", "2", "--seed", "7", "--out", str(out_csv))
        assert code == 0
        outputs.append((out, out_csv.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count("RUN ") == 2


@pytest.mark.parametrize("model", ["bouncing-ball", "linswitch4", "platoon6", "tank3"])
def test_translate_xml_to_json_matches_the_bundle_bytes(model, capsys):
    code, out, _ = run(capsys, "translate", str(CORPUS_DIR / model / "model.xml"), "--to", "json")
    assert code == 0
    assert out == (CORPUS_DIR / model / "bundle.json").read_text()


def test_plot_svg_is_deterministic(tmp_path, capsys):
    csv_path = tmp_path / "pipe.csv"
    run(
        capsys,
        "reach",
        str(CORPUS_DIR / "bouncing-ball" / "model.xml"),
        "--out",
        str(csv_path),
    )
    code, svg1, _ = run(capsys, "plot", str(csv_path), "--x", "x", "--y", "v")
    assert code == 0
    assert svg1.startswith("<svg")
    _, svg2, _ = run(capsys, "plot", str(csv_path), "--x", "x", "--y", "v")
    assert svg1 == svg2


def test_plot_csv_projection(tmp_path, capsys):
    csv_path = tmp_path / "pipe.csv"
    run(capsys, "reach", str(CORPUS_DIR / "tank3" / "model.xml"), "--out", str(csv_path))
    code, out, _ = run(capsys, "plot", str(csv_path), "--x", "x2", "--y", "x3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "lo_x2,hi_x2,lo_x3,hi_x3"


@pytest.mark.parametrize("kind, edit, message", [
    pytest.param("flowpipe", {4: "abc"}, "CSV line 3: cell 5 is not a number: 'abc'", id="flowpipe-text"),
    pytest.param("flowpipe", 5, "CSV line 3 has 5 cells", id="flowpipe-short"),
    pytest.param("trajectory", {4: "1.5e"}, "CSV line 3: cell 5 is not a number: '1.5e'", id="trajectory-text"),
    pytest.param("trajectory", 4, "CSV line 3 has 4 cells", id="trajectory-short"),
])
def test_plot_on_a_malformed_csv_is_an_input_error(tmp_path, capsys, kind, edit, message):
    """A non-numeric cell or a short row: replace cells {index: text}, or keep the first n."""
    csv_path = tmp_path / "export.csv"
    model = str(CORPUS_DIR / "bouncing-ball" / "model.xml")
    command = "reach" if kind == "flowpipe" else "simulate"
    assert run(capsys, command, model, "--out", str(csv_path))[0] == 0
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    if isinstance(edit, dict):
        cells = [edit.get(i, cell) for i, cell in enumerate(cells)]
    else:
        cells = cells[:edit]
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "plot", str(csv_path), "--x", "x", "--y", "v")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")


def test_validate_reports_defects_with_nonzero_exit(tmp_path, capsys):
    bad = (CORPUS_DIR / "bouncing-ball" / "model.xml").read_text().replace(
        '<transition source="1" target="1">', '<transition source="1" target="9">', 1
    )
    path = tmp_path / "bad.xml"
    path.write_text(bad)
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 2
    assert "DEFECT dangling-name" in out


def test_validate_ok_on_corpus_model(capsys):
    code, out, _ = run(capsys, "validate", str(CORPUS_DIR / "linswitch4" / "model.xml"))
    assert code == 0
    assert out.strip() == "OK"


def test_bench_translate_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "bundle.json"
    code, _, _ = run(capsys, "bench", "tank3", "translate", "--to", "json", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["name"] == "tank_3"
    assert len(data["locations"]) == 8


def test_bench_plot_produces_svg(capsys):
    code, out, _ = run(capsys, "bench", "bouncing-ball", "plot")
    assert code == 0
    assert out.startswith("<svg") and "<rect" in out


def test_json_bundle_drives_reach_directly(capsys):
    code, out, _ = run(capsys, "check", str(CORPUS_DIR / "bouncing-ball" / "bundle.json"))
    assert code == 0
    assert out.startswith("VERDICT SafeProved")


def test_engine_error_maps_to_exit_3(tmp_path, capsys):
    import numpy as np

    from hyra.ir import (
        AffineDynamics,
        Condition,
        HybridAutomaton,
        InitialCondition,
        Location,
        ModelBundle,
        ReachSettings,
        VariableTable,
    )
    from hyra.sets import Box

    stiff = AffineDynamics([[0.0, 1e5], [-1e5, 0.0]], np.zeros((2, 0)), [0.0, 0.0])
    automaton = HybridAutomaton(
        "stiff", VariableTable(("x", "y")), (Location("spin", Condition(), stiff),), ()
    )
    bundle = ModelBundle(
        automaton,
        ReachSettings(1.0, 1.0, 0, None, None, False),
        InitialCondition("spin", Box([1.0, 0.0], [1.0, 0.0])),
    )
    path = tmp_path / "stiff.json"
    path.write_text(write_json(bundle))
    code, _, err = run(capsys, "check", str(path))
    assert code == 3
    assert "reduce the step" in err


def test_diverging_flowpipe_is_an_engine_error(tmp_path, capsys):
    cfg = (CORPUS_DIR / "platoon6" / "config.cfg").read_text()
    assert "time-horizon = 12\n" in cfg
    path = tmp_path / "long.cfg"
    path.write_text(cfg.replace("time-horizon = 12\n", "time-horizon = 200\n"))
    code, out, err = run(capsys, "reach", str(CORPUS_DIR / "platoon6" / "model.xml"), str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("engine error: ") and "floating-point range" in err
    assert "Traceback" not in err


def test_diverging_simulation_is_an_engine_error(tmp_path, capsys):
    cfg = (CORPUS_DIR / "linswitch4" / "config.cfg").read_text()
    assert "time-horizon = 1.2\n" in cfg
    path, runs = tmp_path / "long.cfg", tmp_path / "runs.csv"
    path.write_text(cfg.replace("time-horizon = 1.2\n", "time-horizon = 400\n"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way out of range
        code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "linswitch4" / "model.xml"), str(path),
                             "--seeds", "1", "--out", str(runs))
    assert code == 3
    assert out == "" and not runs.exists()
    assert err.startswith("engine error: run left the floating-point range at t=") and err.count("\n") == 1
    assert err.endswith("; the dynamics diverge over the horizon\n")


def test_diverging_simulation_prints_one_stderr_line_in_a_fresh_process(tmp_path):
    cfg = (CORPUS_DIR / "linswitch4" / "config.cfg").read_text()
    path = tmp_path / "long.cfg"
    path.write_text(cfg.replace("time-horizon = 1.2\n", "time-horizon = 400\n"))
    done = subprocess.run([sys.executable, "-m", "hyra", "simulate", str(CORPUS_DIR / "linswitch4" / "model.xml"),
                           str(path), "--seeds", "1"], cwd=REPO_ROOT,
                          env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("engine error: run left the floating-point range") and done.stderr.count("\n") == 1


def test_overflowing_first_interval_is_an_engine_error(tmp_path, capsys):
    cfg = (CORPUS_DIR / "platoon6" / "config.cfg").read_text()
    assert cfg.count(">= 0.9 ") == 18 and cfg.count("<= 1.1") == 18
    path = tmp_path / "huge.cfg"
    path.write_text(cfg.replace(">= 0.9 ", ">= 1e306 ").replace("<= 1.1", "<= 5e306"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        code, out, err = run(capsys, "reach", str(CORPUS_DIR / "platoon6" / "model.xml"), str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("engine error: ") and "floating-point range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("lo, hi", [(-0.95e308, 0.8e308), (1e308, 1.5e308)], ids=["wide", "far-narrow"])
def test_merged_hull_past_the_largest_float_is_checked(lo, hi, tmp_path, capsys):
    # the merged hull in b is wider than the largest float, or narrow with a
    # sum of bounds past it; either way it has a center and radius
    path = tmp_path / "merge.json"
    path.write_text(write_json(merge_overflow_bundle(lo, hi)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        code, out, err = run(capsys, "check", str(path))
    assert (code, out, err) == (0, "VERDICT SafeProved jumps=1 segments=6 time=0.3\n", "")


def wide_tank_files(tmp_path, capsys):
    """A tank3 cfg whose x1 spans [-1e308, 1e308], a box with a finite center and radius that leaves
    the invariant x1 >= 0.4 of its location, and its JSON bundle."""
    cfg = (CORPUS_DIR / "tank3" / "config.cfg").read_text()
    assert cfg.count("x1 >= 0.48 & x1 <= 0.52") == 1
    path = tmp_path / "wide.cfg"
    path.write_text(cfg.replace("x1 >= 0.48 & x1 <= 0.52", "x1 >= -1e308 & x1 <= 1e308"))
    bundle = tmp_path / "wide.json"
    code, _, _ = run(capsys, "translate", str(CORPUS_DIR / "tank3" / "model.xml"), str(path),
                     "--to", "json", "--out", str(bundle))
    assert code == 0
    return [str(CORPUS_DIR / "tank3" / "model.xml"), str(path)], [str(bundle)]


@pytest.mark.parametrize("source", ["cfg", "json"])
@pytest.mark.parametrize("command, want", [
    ("reach", (3, "", "engine error: initial set of location 'off_off_off' is not inside its invariant\n")),
    ("check", (3, "", "engine error: initial set of location 'off_off_off' is not inside its invariant\n")),
    ("simulate", (0, "RUN 0 samples=502 events=1 zeno=false\n", "")),
], ids=["reach", "check", "simulate"])
def test_initial_box_outside_its_invariant_stops_reach_and_check_not_simulate(command, want, source,
                                                                              tmp_path, capsys):
    from_cfg, from_json = wide_tank_files(tmp_path, capsys)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, command, *(from_cfg if source == "cfg" else from_json)) == want


def test_simulate_samples_a_box_wider_than_the_largest_float_inside_it(tmp_path, capsys):
    bundle = wide_box_bundle("initial")
    lo, hi = float(bundle.initial.box.lo[0]), float(bundle.initial.box.hi[0])
    assert hi - lo == float("inf")
    path, out = tmp_path / "wide.json", tmp_path / "runs.csv"
    path.write_text(write_json(bundle))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "simulate", str(path), "--seeds", "8", "--out", str(out))
    assert (code, err) == (0, "")
    assert stdout.count("RUN ") == 8
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    starts = {}
    for run_id, _, _, x in rows:
        starts.setdefault(run_id, float(x))
    assert len(starts) == 8 and len(set(starts.values())) == 8
    assert all(lo <= x <= hi for x in starts.values())
    assert {starts["0"], starts["1"]} == {lo, hi}  # the two corners come first


def test_invalid_step_override_is_an_input_error(capsys):
    code, _, err = run(
        capsys, "check", str(CORPUS_DIR / "tank3" / "model.xml"), "--step", "100"
    )
    assert code == 2
    assert "--step" in err


@pytest.mark.parametrize("argv", [
    ("reach", str(CORPUS_DIR / "tank3" / "bundle.json")),
    ("check", str(CORPUS_DIR / "tank3" / "bundle.json")),
    ("bench", "ball", "reach"),
], ids=["reach", "check", "bench-reach"])
def test_step_too_small_to_count_its_horizon_is_an_input_error(argv, capsys):
    # horizon / step overflows to inf, which the flowpipe's step count cannot hold
    code, out, err = run(capsys, *argv, "--step", "1e-320")
    assert (code, out) == (2, "")
    assert err.startswith("error: --step: ") and err.count("\n") == 1
    assert "horizon / step overflows" in err


@pytest.mark.parametrize("argv", [("bundle.json",), ("model.xml", "config.cfg")], ids=["json", "xml"])
def test_simulate_step_too_small_to_count_its_horizon_is_an_input_error(argv):
    # the run stepped toward a horizon 5e320 steps away and never returned: a subprocess bounds the wait
    files = [str(CORPUS_DIR / "tank3" / name) for name in argv]
    done = subprocess.run([sys.executable, "-m", "hyra.cli", "simulate", *files, "--step", "1e-320"],
                          env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: --step: step 1e-320 is too small for horizon 5.0: horizon / step overflows\n"


@pytest.mark.parametrize("model, command, horizon", [("tank3", "reach", "5.0"), ("bouncing-ball", "simulate", "40.0")])
def test_a_step_count_above_the_bound_is_an_input_error(model, command, horizon):
    # a finite count of 5e300 steps: reach never returned and simulate doubled its arrays past the memory
    done = subprocess.run([sys.executable, "-m", "hyra.cli", "bench", model, command, "--step", "1e-300"],
                          env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: --step: step 1e-300 is too small for horizon {horizon}: " \
                          "horizon / step is above 1048576 steps\n"


@pytest.mark.parametrize("step", ["0", "-0.01", "nan", "inf", "-inf", "1e999"])
def test_simulate_step_that_is_not_finite_and_positive_is_an_input_error(step, capsys):
    # a zero or negative step never advanced the run's time: the loop did not return
    code, out, err = run(capsys, "simulate", str(CORPUS_DIR / "tank3" / "model.xml"),
                         str(CORPUS_DIR / "tank3" / "config.cfg"), f"--step={step}")
    assert (code, out) == (2, "")
    assert err == f"error: --step: need a finite step > 0, not {float(step)!r}\n"


@pytest.mark.parametrize("argv", [
    ("simulate", str(CORPUS_DIR / "tank3" / "model.xml"), "--seeds", "0"),
    ("simulate", str(CORPUS_DIR / "tank3" / "bundle.json"), "--seeds", "-1"),
    ("bench", "tank3", "simulate", "--seeds", "0"),
], ids=["zero", "negative", "bench"])
def test_simulate_seeds_below_one_is_an_input_error(argv, capsys):
    seeds = argv[-1]
    assert run(capsys, *argv) == (2, "", f"error: --seeds: need at least 1 run, not {seeds}\n")


@pytest.mark.parametrize("argv", [
    ("simulate", str(CORPUS_DIR / "tank3" / "model.xml"), "--seed", "-1"),
    ("bench", "ball", "simulate", "--seed", "-1"),
], ids=["file", "bench"])
def test_simulate_negative_seed_is_an_input_error(argv, capsys):
    assert run(capsys, *argv) == (2, "", "error: --seed: need a seed of at least 0, not -1\n")


BALL = CORPUS_DIR / "bouncing-ball"
OUT_COMMANDS = {
    "translate": ("translate", str(BALL / "model.xml"), "--to", "json"),
    "reach": ("reach", str(BALL / "bundle.json")),
    "simulate": ("simulate", str(BALL / "model.xml"), "--seeds", "2"),
    "plot": ("plot", "{csv}", "--x", "x", "--y", "v"),
    "bench-translate": ("bench", "ball", "translate"),
    "bench-reach": ("bench", "ball", "reach"),
    "bench-simulate": ("bench", "ball", "simulate"),
    "bench-plot": ("bench", "ball", "plot", "--format", "csv"),
}


@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_out_that_cannot_be_written_is_an_input_error(command, where, tmp_path, capsys):
    csv = tmp_path / "pipe.csv"
    csv.write_text("time_lo,time_hi,location,jump_depth,lo_x,hi_x,lo_v,hi_v\n0,1,always,0,1,2,3,4\n")
    out = tmp_path / "missing" / "out.txt" if where == "missing-directory" else tmp_path
    argv = [a.replace("{csv}", str(csv)) for a in OUT_COMMANDS[command]]
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def _dangling_target(fmt: str, tmp_path) -> str:
    """The ball's model file in ``fmt`` with its first transition's target a location that does not exist."""
    if fmt == "xml":
        text = (BALL / "model.xml").read_text().replace('target="1"', 'target="9"', 1)
    else:
        data = json.loads((BALL / "bundle.json").read_text())
        data["transitions"][0]["target"] = "9"
        text = json.dumps(data)
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    return str(path)


def test_validate_prints_the_same_defect_lines_for_xml_and_json(tmp_path, capsys):
    want = "DEFECT dangling-name transition #0 (always->9): target '9' is not a location\n"
    assert run(capsys, "validate", _dangling_target("xml", tmp_path)) == (2, want, "")
    assert run(capsys, "validate", _dangling_target("json", tmp_path)) == (2, want, "")


def test_validate_prints_the_defects_of_a_json_forbidden_set(tmp_path, capsys):
    data = json.loads((BALL / "bundle.json").read_text())
    data["transitions"][0]["target"] = "9"
    data["settings"]["forbidden"] = [{"coeffs": [0, 1], "relation": ">=", "bound": 10.7},
                                     {"coeffs": [0, 1, 0, 0], "relation": ">=", "bound": float("nan")}]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert run(capsys, "validate", str(path)) == (2, (
        "DEFECT dangling-name transition #0 (always->9): target '9' is not a location\n"
        "DEFECT dimension forbidden set: constraint over 2 variables, expected 4\n"
        "DEFECT non-finite forbidden set: constraint has non-finite entries\n"
    ), "")


def _defective_ball_xml(tmp_path) -> str:
    """The ball's model.xml with its constant c not finite and its first transition's target missing."""
    text = (BALL / "model.xml").read_text().replace('target="1"', 'target="9"', 1)
    path = tmp_path / "bad.xml"
    path.write_text(text.replace('name="c" type="real" dynamics="const" value="0.75"',
                                 'name="c" type="real" dynamics="const" value="nan"', 1))
    return str(path)


BALL_DEFECTS = (("non-finite", "constant 'c' is not finite"),
                ("dangling-name", "transition #0 (always->9): target '9' is not a location"))


@pytest.mark.parametrize("command", [("validate",), ("check",), ("translate", "--to", "json")], ids=lambda c: c[0])
def test_a_model_xml_with_defects_prints_its_defect_lines_or_its_error_line(command, tmp_path, capsys):
    got = run(capsys, command[0], _defective_ball_xml(tmp_path), *command[1:])
    if command[0] == "validate":
        assert got == (2, "".join(f"DEFECT {code} {message}\n" for code, message in BALL_DEFECTS), "")
    else:
        details = "; ".join(f"[{code}] {message}" for code, message in BALL_DEFECTS)
        assert got == (2, "", f"error: model does not validate: {details}\n")


@pytest.mark.parametrize("model, old, new, message", [
    ("bouncing-ball", 'value="0.75"', 'value="abc"', "param 'c': value 'abc' is not a number"),
    ("bouncing-ball", 'value="0.75"', 'value=""', "param 'c': value '' is not a number"),
    ("linswitch4", 'min="-0.1"', 'min="lo"', "param 'u': min 'lo' is not a number"),
    ("linswitch4", 'max="0.1"', 'max="0.1.2"', "param 'u': max '0.1.2' is not a number"),
], ids=["value", "empty-value", "min", "max"])
@pytest.mark.parametrize("command", ["validate", "check"])
def test_a_param_attribute_that_is_not_a_number_is_an_input_error(model, old, new, message, command, tmp_path,
                                                                   capsys):
    text = (CORPUS_DIR / model / "model.xml").read_text()
    assert text.count(old) == 1
    path = tmp_path / "model.xml"
    path.write_text(text.replace(old, new))
    assert run(capsys, command, str(path)) == (2, "", f"error: {message}\n")


NOT_UTF8 = bytes([0xFF, 0xFE, 0x00])  # a UTF-16 byte-order mark; the byte 0xff never occurs in UTF-8
# each command with its non-UTF-8 file ``{bad}``, whose suffix ends the command's name
NOT_UTF8_COMMANDS = {
    "validate-xml": ("validate", "{bad}"),
    "validate-json": ("validate", "{bad}"),
    "check-xml": ("check", "{bad}"),
    "check-cfg": ("check", str(BALL / "model.xml"), "{bad}"),
    "reach-json": ("reach", "{bad}"),
    "translate-cfg": ("translate", str(BALL / "model.xml"), "{bad}", "--to", "json"),
    "simulate-xml": ("simulate", "{bad}"),
    "plot-csv": ("plot", "{bad}", "--x", "a", "--y", "b"),
}


@pytest.mark.parametrize("command", sorted(NOT_UTF8_COMMANDS))
def test_a_file_that_is_not_utf8_is_an_input_error(command, tmp_path, capsys):
    bad = tmp_path / f"bad.{command.split('-')[1]}"
    bad.write_bytes(NOT_UTF8)
    code, out, err = run(capsys, *(a.replace("{bad}", str(bad)) for a in NOT_UTF8_COMMANDS[command]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
@pytest.mark.parametrize(
    "command", [("validate",), ("translate", "--to", "flowstar"), ("check",)], ids=lambda c: c[0]
)
def test_bad_json_values_are_input_errors(case, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(bad_value_document(case))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("field, value, command, message", [
    ("forbidden", [{"coeffs": [0, 1], "relation": ">=", "bound": 10.7}], ("check",),
     "bundle does not validate: [dimension] forbidden set: constraint over 2 variables, expected 4"),
    ("output_vars", ["x", "nope"], ("translate", "--to", "flowstar"),
     "output_vars: 'nope' is not a state variable"),
], ids=["forbidden", "output_vars"])
def test_json_settings_that_do_not_fit_the_model_are_input_errors(field, value, command, message,
                                                                   tmp_path, capsys):
    data = json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())
    data["settings"][field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [("check",), ("translate", "--to", "json")], ids=lambda c: c[0])
def test_json_forbidden_bound_of_nan_is_an_input_error(command, tmp_path, capsys):
    data = json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())
    data["settings"]["forbidden"][0]["bound"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))  # writes the bound as NaN
    code, out, err = run(capsys, command[0], str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == "error: bundle does not validate: [non-finite] forbidden set: constraint has non-finite entries\n"


@pytest.mark.parametrize("forbidden, defect", [
    ("v >= 1e999", "[non-finite] forbidden set: constraint has non-finite entries"),
    ("1e999*v >= 0", "[non-finite] forbidden set: constraint has non-finite entries"),
    ("0 >= 1", "[degenerate-constraint] forbidden set: constraint has no variable term"),
], ids=["bound", "coefficient", "no-variable"])
@pytest.mark.parametrize("command", [("translate", "--to", "json"), ("translate", "--to", "flowstar"),
                                     ("translate", "--to", "spaceex"), ("check",)], ids=lambda c: c[-1])
def test_cfg_forbidden_set_that_ir_validate_rejects_is_an_input_error(forbidden, defect, command, tmp_path, capsys):
    cfg = (CORPUS_DIR / "bouncing-ball" / "config.cfg").read_text()
    assert cfg.count("forbidden = v >= 10.7\n") == 1
    path = tmp_path / "config.cfg"
    path.write_text(cfg.replace("forbidden = v >= 10.7", "forbidden = " + forbidden))
    code, out, err = run(capsys, command[0], str(CORPUS_DIR / "bouncing-ball" / "model.xml"), str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == f"error: bundle does not validate: {defect}\n"


@pytest.mark.parametrize("model", ["bouncing-ball", "linswitch4", "platoon6", "tank3"])
def test_bench_commands_match_the_file_commands(model, tmp_path, capsys):
    xml = str(CORPUS_DIR / model / "model.xml")
    bench = build(benchmark_from_name(model))
    x_name, y_name = bench.settings.output_vars or bench.automaton.vars.state_vars[:2]
    csv_path = tmp_path / "file-reach.csv"
    pairs = [
        (["check"], ["check", xml]),
        (["validate"], ["validate", xml]),
        (["reach", "--out", "{out}"], ["reach", xml, "--out", "{out}"]),
        (["plot"], ["plot", str(csv_path), "--x", x_name, "--y", y_name]),
        (["plot", "--format", "csv", "--out", "{out}"],
         ["plot", str(csv_path), "--x", x_name, "--y", y_name, "--format", "csv", "--out", "{out}"]),
    ]
    for to in ("flowstar", "spaceex", "json"):
        pairs.append((["translate", "--to", to], ["translate", xml, "--to", to]))
    pairs.append((["translate", "--to", "json", "--out", "{out}"],
                  ["translate", xml, "--to", "json", "--out", "{out}"]))
    run(capsys, "reach", xml, "--out", str(csv_path))
    for bench_args, file_args in pairs:
        results = []
        for side, argv in (("bench", ["bench", model, *bench_args]), ("file", file_args)):
            out_path = tmp_path / f"{side}.out"
            code, out, _ = run(capsys, *(a.replace("{out}", str(out_path)) for a in argv))
            results.append((code, out, out_path.read_bytes() if out_path.exists() else None))
        assert results[0] == results[1], bench_args
        assert results[0][1] or results[0][2], bench_args


def _subcommands(parser) -> dict:
    """The parsers of a parser's subcommands, by name."""
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _option_strings(parser) -> list:
    return sorted(flag for action in parser._actions for flag in action.option_strings)


FILE_COMMANDS = [name for name in _subcommands(build_parser()) if name != "bench"]


def test_the_usage_line_lists_the_file_commands_then_bench():
    assert "{validate,translate,reach,check,simulate,plot,bench}" in build_parser().format_usage()


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_each_bench_command_takes_exactly_the_options_of_its_file_command(command):
    commands = _subcommands(build_parser())
    bench = _subcommands(commands["bench"])[command]
    assert _option_strings(bench) == _option_strings(commands[command])
    assert not any(action.required for action in bench._actions)


@pytest.mark.parametrize("model", ["bouncing-ball", "linswitch4", "platoon6", "tank3"])
@pytest.mark.parametrize("command", [("check",), ("reach", "--out", "{out}"),
                                     ("simulate", "--seeds", "2", "--out", "{out}")], ids=lambda c: c[0])
def test_bench_step_matches_the_file_command_step(model, command, tmp_path, capsys):
    step = repr(build(benchmark_from_name(model)).settings.step / 2)
    xml = str(CORPUS_DIR / model / "model.xml")
    results = []
    for side, argv in (("bench", ["bench", model, command[0]]), ("file", [command[0], xml])):
        out_path = tmp_path / f"{side}.out"
        args = [a.replace("{out}", str(out_path)) for a in (*argv, *command[1:], "--step", step)]
        code, out, _ = run(capsys, *args)
        results.append((code, out, out_path.read_bytes() if out_path.exists() else None))
    assert results[0] == results[1]
    assert results[0][1].startswith(("VERDICT ", "RUN "))
    assert (results[0][2] is None) == (command[0] == "check")


@pytest.mark.parametrize("argv", [("validate", "--to", "json"), ("check", "--out", "{out}")], ids=lambda a: a[0])
def test_a_bench_form_rejects_an_option_its_command_does_not_take(argv, tmp_path, capsys):
    out_path = tmp_path / "out.txt"
    with pytest.raises(SystemExit) as exc:
        main(["bench", "ball", *(a.replace("{out}", str(out_path)) for a in argv)])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert f"unrecognized arguments: {argv[1]}" in captured.err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, code, out", [
    (("validate", "corpus/bouncing-ball/model.xml"), 0, "OK\n"),
    (("check", "corpus/platoon6/bundle.json"), 1, "VERDICT PossiblyUnsafe jumps=2 segments=1800 time=12\n"),
], ids=["validate", "check"])
def test_python_dash_m_hyra_runs_the_cli(argv, code, out):
    done = subprocess.run([sys.executable, "-m", "hyra", *argv], cwd=REPO_ROOT,
                          env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")), capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout) == (code, out)


def test_in_process_calls_match_fresh_parsers(tmp_path, capsys):
    xml = str(CORPUS_DIR / "tank3" / "model.xml")
    out_path = tmp_path / "tank3.model"
    sequence = [
        ["translate", xml, "--to", "flowstar"],
        ["translate", xml, "--to", "pdf"],
        ["translate", xml, "--to", "json", "--out", str(out_path)],
        ["translate", xml, "--to", "json"],
        ["validate", xml],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser.cache_clear()
    reused = [call(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    assert reused[1][0] == ("exit", 2)
    assert reused[3][1] == (CORPUS_DIR / "tank3" / "bundle.json").read_text()
    assert out_path.read_text() == reused[3][1]


@pytest.mark.parametrize("command", ["validate", "check"])
def test_deeply_nested_json_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid JSON: ") and err.count("\n") == 1


@pytest.mark.parametrize("forbidden, message", [
    ("(" * 3000 + "v" + ")" * 3000 + " >= 10.7", "expression nests too deeply (at position "),
    ("+".join(["v"] * 3000) + " >= 10.7", "expression nests too deeply to linearize"),
], ids=["parentheses", "long-sum"])
def test_deeply_nested_expression_is_an_input_error(forbidden, message, tmp_path, capsys):
    cfg = (CORPUS_DIR / "bouncing-ball" / "config.cfg").read_text()
    path = tmp_path / "deep.cfg"
    path.write_text(cfg.replace("forbidden = v >= 10.7", "forbidden = " + forbidden))
    code, out, err = run(capsys, "check", str(CORPUS_DIR / "bouncing-ball" / "model.xml"), str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("to, line", [("json", '    "max_jumps": 2,\n'), ("flowstar", "  max jumps 2\n")])
def test_integral_float_max_jumps_is_written_as_an_integer(to, line, tmp_path, capsys):
    data = json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())
    data["settings"]["max_jumps"] = 2.0
    path = tmp_path / "ball.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "translate", str(path), "--to", to)
    assert code == 0
    assert line in out and "max_jumps\": 2.0" not in out and "max jumps 2.0" not in out


@pytest.mark.parametrize("edit", [
    lambda d: d["settings"].update(max_jumps=2**70),
    lambda d: d.update(name="\ud800x"),
], ids=["max-jumps", "lone-surrogate"])
def test_translating_a_bundle_the_writer_cannot_write_is_an_input_error(edit, tmp_path, capsys):
    data = json.loads((CORPUS_DIR / "bouncing-ball" / "bundle.json").read_text())
    edit(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data, indent=2))
    code, out, err = run(capsys, "translate", str(path), "--to", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bundle document rejected: ") and err.count("\n") == 1
    assert "Traceback" not in err


# An ASCII locale: Python reads and writes text in the locale's encoding unless told otherwise.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}


def _run_in_ascii_locale(*argv, cwd):
    env = dict(os.environ, **ASCII_LOCALE, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("PYTHONIOENCODING", None)  # it would set stdout's encoding apart from the locale
    done = subprocess.run([sys.executable, "-m", "hyra.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=120)
    return done.returncode, done.stdout, done.stderr.decode("ascii")


def _ball_with_a_non_ascii_location(tmp_path):
    """The ball's files with its location named ``état``, and ``defective.xml`` whose first transition's
    target is missing; returns the bytes of model.xml."""
    for name in ("model.xml", "config.cfg"):
        text = (BALL / name).read_text(encoding="utf-8").replace("always", "état")
        (tmp_path / name).write_text(text, encoding="utf-8")
    model = (tmp_path / "model.xml").read_bytes()
    (tmp_path / "defective.xml").write_bytes(model.replace(b'target="1"', b'target="9"', 1))
    return model


def test_files_are_read_and_written_as_utf8_in_an_ascii_locale(tmp_path):
    model = _ball_with_a_non_ascii_location(tmp_path)
    assert _run_in_ascii_locale("validate", "model.xml", cwd=tmp_path) == (0, b"OK\n", "")
    code, out, err = _run_in_ascii_locale("translate", "model.xml", "--to", "spaceex", "--out", "out.xml",
                                          cwd=tmp_path)
    assert (code, out, err) == (0, b"", "")
    assert (tmp_path / "out.xml").read_bytes() == model
    code, out, _ = _run_in_ascii_locale("reach", "model.xml", "--out", "pipe.csv", cwd=tmp_path)
    assert code == 0 and out.startswith(b"VERDICT SafeProved ")
    assert b"\n0,0.01,\xc3\xa9tat,0," in (tmp_path / "pipe.csv").read_bytes()


@pytest.mark.parametrize("command", [("translate", "model.xml", "--to", "spaceex"), ("validate", "defective.xml")],
                         ids=lambda c: c[0])
def test_text_stdout_cannot_encode_is_an_input_error(command, tmp_path):
    _ball_with_a_non_ascii_location(tmp_path)
    code, out, err = _run_in_ascii_locale(*command, cwd=tmp_path)
    assert (code, out) == (2, b"")
    assert err.startswith("error: cannot write to stdout: 'ascii' codec can't encode") and err.count("\n") == 1


def test_plot_of_a_trajectory_csv_without_a_run_column_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "runs.csv"
    path.write_text("time,location,x,v\n0,always,10,0\n0.1,always,9.95,-0.98\n")
    assert run(capsys, "plot", str(path), "--x", "x", "--y", "v") == (2, "", (
        "error: unrecognized CSV header; expected a flowpipe export (time_lo,time_hi,location,jump_depth,...)"
        " or a trajectory export (run,time,location,...)\n"))


def _ball_cfg(tmp_path, drop: str = "", **replace) -> str:
    """The ball's model.xml next to its config.cfg with the lines starting ``drop`` left out and the text
    ``old`` replaced by ``new`` for each ``old=new``; returns the model path."""
    lines = [line for line in (BALL / "config.cfg").read_text().splitlines() if not (drop and line.startswith(drop))]
    text = "\n".join(lines) + "\n"
    for old, new in replace.items():
        text = text.replace(old, new)
    (tmp_path / "model.xml").write_text((BALL / "model.xml").read_text())
    (tmp_path / "config.cfg").write_text(text)
    return str(tmp_path / "model.xml")


def test_a_cfg_without_a_time_horizon_names_the_missing_key(tmp_path, capsys):
    model = _ball_cfg(tmp_path, drop="time-horizon")
    assert run(capsys, "check", model, str(tmp_path / "config.cfg")) == (
        2, "", "error: missing required key 'time-horizon'\n")


@pytest.mark.parametrize("edit, err", [
    pytest.param(None, "error: no configuration for {model}: pass one or place config.cfg next to the model\n",
                 id="no-config"),
    pytest.param({"drop": "initially"}, "error: configuration does not define an initial set (key: initially)\n",
                 id="no-initially"),
    pytest.param({"bouncing_ball_2": "other", "loc() == always": "loc() == nowhere"},
                 "note: config system 'other' differs from model name 'bouncing_ball_2'\n"
                 "error: initial location 'nowhere' not in model\n", id="other-system"),
    pytest.param({"loc() == always": "loc() == nowhere"}, "error: initial location 'nowhere' not in model\n",
                 id="unknown-location"),
])
def test_a_model_and_cfg_that_make_no_bundle_are_input_errors(edit, err, tmp_path, capsys):
    model = _ball_cfg(tmp_path, **(edit or {}))
    if edit is None:
        (tmp_path / "config.cfg").unlink()
    assert run(capsys, "translate", model, "--to", "json") == (2, "", err.format(model=model))
