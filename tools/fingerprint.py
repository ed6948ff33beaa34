#!/usr/bin/env python3
"""Print one SHA-256 line per model and configuration of hyra's outputs.

The lines cover the reach CSV (with the verdict) at the shipped settings,
at a horizon that leaves every flowpipe living to it a leftover tail step
(as the test suite's ``with_leftover_tail`` builds it) and at the deeper
jump bounds of the reach-deep benchmark (ball at 3 and 5 jumps, tank3 at 16
and 24 jumps over 10 and 15 s), the run table and the event table of each
of three seeded ``simulate`` runs with Heun and Euler at the shipped step
and at step/10, and the file ``hyra bench <model> simulate --seeds 3 --out``
writes. Two models of the test suite add reach lines
with the fixpoint check on and off: one whose check discards a revisit,
one whose check must keep an earlier entry. One more adds the reach CSV
(or the ``Type: message`` of the engine error) of a model whose jump
successor, clamped to a multi-variable invariant, still pokes out of it.
Reader lines cover
``write_json`` and ``emit_flowstar`` of ``read_json`` on each corpus
``bundle.json`` and the rejection message of each ``BAD_VALUES`` document
of the test suite. Translation lines cover ``emit_spaceex`` and
``emit_config`` of each corpus model, ``write_json`` of each parsed
``model.xml`` with its ``config.cfg``, every format's text of the test
suite's generated symbolic automata, and ``write_json`` of the test suite's
bundle that holds every number and text spelling of the JSON writer.
Overflow lines cover the reach CSV (with the verdict) of the test suite's
models whose boxes have finite bounds past the reach of 0.5 (lo + hi) or
0.5 (hi - lo): the merged hull wider than the largest float, the same
model from the narrow far box x in [1e308, 1.5e308], and the guard window
and reset successor wider than the largest float. A run that raises an
engine error prints its ``Type: message`` text instead. Rejection lines
cover the ``Type: message`` text of each of about 40 malformed expression
texts in ``MALFORMED``, read by ``parse_condition`` over the ball's
variables and by ``parse_spaceex`` of the ball's ``model.xml`` with the
text as the guard of its first transition. Plot lines cover the SVG and
the ``projection_to_csv`` text of ``hyra plot``'s projection of each corpus
model's reach CSV at the shipped settings, onto its output variables, and
of the ball's run table of one seeded Heun run and its multi-run CSV
of ``hyra bench bouncing-ball simulate --seeds 3 --out``, and the SVG (or
the ``Type: message`` of the error) of the projection of one-row flowpipe
CSVs whose x range is one value, 1e308, -1e308 or 3. Forbidden-set lines
cover the exit code and the ``Type: message`` of the error (or the stdout)
of ``hyra translate --to json`` and ``hyra check`` on the ball's
``model.xml`` with its ``config.cfg`` whose forbidden set reads
``v >= 1e999``. Input-error lines cover the exit code and the stdout, or
the first stderr line when stdout is empty, of ``hyra translate``,
``reach``, ``simulate`` and ``plot`` with ``--out`` a fixed path under a
missing directory, of ``hyra simulate --seed -1`` on tank3's ``model.xml``
and of ``hyra validate`` on the ball's ``bundle.json`` with its first
transition's target a missing location; one more plot line covers the SVG
of a one-row flowpipe CSV whose x range is the whole float range, from
-1.7976931348623157e308 to 1.7976931348623157e308. Decoding lines cover
the exit code and the first stderr line, its temporary directory written
as ``<tmp>``, of ``hyra validate`` and ``hyra check`` on a ``model.xml`` and
of ``hyra plot`` on a CSV file that each hold the bytes ``ff fe 00``, which
are not UTF-8. Param lines, last, cover the exit code and the first
stderr line (or the ``Type: message`` of a crash) of ``hyra validate``
and ``hyra check`` on the ball's ``model.xml`` whose constant ``c`` reads
``value="abc"``. Bench lines, last, cover the exit code and stdout of
``hyra bench <model> check --step`` at half each corpus model's shipped
step, and the exit code and first stderr line (its stdout is empty) of
``hyra bench bouncing-ball validate --to json``, which the parser rejects
because ``validate`` takes no ``--to``. Generated-simulate lines cover the
run and event tables of three seeded ``simulate`` runs
with Heun and with Euler at the shipped step of each of the test suite's
generated automata, whose guards and invariants span several variables and
every relation. A run that leaves the floating-point range, by raising
``NonFiniteFlowpipe`` or by returning a non-finite state, prints the fixed
text ``non-finite run``. Generated-reach lines, last of all, cover the
reach CSV (with the verdict) of each generated automaton at its own
settings, or the ``Type: message`` of the engine error reach raises, as
most of them do (a start box outside its invariant, a step too large).
The run table is the trajectory CSV that ``hyra simulate --out`` writes,
and the event table lists each event's time, label, source, target and
the state before and after it. The tool writes both itself with
``hyra.expressions.format_table``, so it runs on older source trees too.
Two source trees print the same lines exactly when all of these outputs
are byte-identical:

    PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    PYTHONPATH=/path/to/other/src python3 tools/fingerprint.py > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import html
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from hyra import corpus
from hyra.cli import build_parser, main as cli_main
from hyra.config import emit_config, parse_config
from hyra.errors import EngineError, HyraError, NonFiniteFlowpipe, SchemaViolation
from hyra.expressions import format_table, parse_condition
from hyra.flowstar import emit_flowstar
from hyra.interchange import read_json, write_json
from hyra.ir import ModelBundle, ReachSettings
from hyra.plot import project_csv, projection_to_csv, projection_to_svg
from hyra.reach import reach, segments_to_csv
from hyra.simulate import Integrator, SimOptions, sample_initial, simulate
from hyra.spaceex import emit_spaceex, parse_spaceex

REPO_ROOT = Path(__file__).resolve().parents[1]

DEEP = {
    "bouncing-ball": [(3, None), (5, None)],
    "tank3": [(16, 10.0), (24, 10.0), (16, 15.0), (24, 15.0)],
}
SEEDS = 3
TAIL = 0.37  # of a step: the leftover-tail horizon of the test suite
BALL_GUARD = "<guard>x == 0 &amp; v &lt;= 0</guard>"
MISSING_OUT = "/nonexistent/hyra-fingerprint/out.txt"  # under a directory that does not exist
FLOWPIPE_HEADER = "time_lo,time_hi,location,jump_depth,lo_x,hi_x,lo_y,hi_y"
NOT_UTF8 = bytes([0xFF, 0xFE, 0x00])
NON_FINITE = "non-finite run\n"  # a run out of the float range, whether it raises or returns its states
# Expression texts each reader must reject: characters and tokens out of
# place, names it does not know, terms that are not affine and nesting past
# the recursion limit.
MALFORMED = [
    "x ? 1", "x <= 1 # 2", "x <= 1e5e", "x <= .", "x <= 1 @", "x \u00e9 1", "x <= 'v", "x : 1",
    "x <=", "x <= 1 &", "& x <= 1", "x <= (1", "x <= 1)", "x <= ()", "(x <= 1", "x <== 1", "x <= 1 <= 2",
    "x := 1", "x <= 1 v", "* x <= 1", "x <= 1 && && v >= 0",
    "zz <= 1", "x + y <= 1", "x <= 1 & w >= 0", "x' <= 1", "v'' >= 0", "c' <= x",
    "x*v <= 1", "c*c*x <= 1", "(x + 1)*(v - 1) <= 0", "x/v <= 1", "x/0 <= 1", "x/-0.0 <= 1", "x/(c - c) <= 1",
    "x/c <= 1", "x + 1", "x <= (v <= 1)", "(x <= 1 & v >= 0) * 2 <= 1",
    "(" * 3000 + "x" + ")" * 3000 + " <= 1", "+".join(["x"] * 3000) + " <= 1",
]


def with_bound(bundle, max_jumps, horizon):
    s = bundle.settings
    settings = ReachSettings(s.horizon if horizon is None else horizon, s.step, max_jumps,
                             s.forbidden, s.output_vars, s.fixpoint_check)
    return ModelBundle(bundle.automaton, settings, bundle.initial)


def reach_configs(model: str, bundle):
    """(label, bundle) of each reach configuration of a corpus model."""
    yield "reach shipped", bundle
    yield f"reach leftover-tail={TAIL:g}", suite_support().with_leftover_tail(bundle, TAIL)
    for jumps, horizon in DEEP.get(model, []):
        label = f"reach jumps={jumps}" + (f" horizon={horizon:g}" if horizon else "")
        yield label, with_bound(bundle, jumps, horizon)


def reach_text(bundle) -> str:
    result = reach(bundle)
    head = f"{result.verdict.value} {result.first_violation}\n"
    return head + segments_to_csv(result, bundle.automaton.vars.state_vars)


def _run_table(trajs, state_vars) -> str:
    """One line per sample of each run, the runs in order: run, time, location, state."""
    return format_table(("run", "time", "location", *state_vars), [
        [str(run) for run, traj in enumerate(trajs) for _ in traj.locations],
        np.concatenate([traj.times for traj in trajs]).reshape(-1, 1),
        [loc for traj in trajs for loc in traj.locations],
        np.concatenate([traj.states for traj in trajs]),
    ])


def _event_table(traj, state_vars) -> str:
    """One line per event: time, label, source, target, state before and after."""
    events = traj.events
    header = ["time", "label", "source", "target"]
    header += [f"pre_{v}" for v in state_vars] + [f"post_{v}" for v in state_vars]
    states = np.reshape([np.concatenate((e.pre_state, e.post_state)) for e in events], (len(events), 2 * len(state_vars)))
    return format_table(header, [np.reshape([e.time for e in events], (-1, 1)), [e.label or "" for e in events],
                                 [e.source for e in events], [e.target for e in events], states])


def simulate_text(bundle, kind, step) -> str:
    state_vars = bundle.automaton.vars.state_vars
    parts = []
    for x0 in sample_initial(bundle.initial.box, SEEDS, 0):
        try:
            traj = simulate(bundle, x0, kind, SimOptions(step=step))
        except NonFiniteFlowpipe:
            parts.append(NON_FINITE)
            continue
        except Exception as exc:  # an engine error is an output too
            parts.append(f"{type(exc).__name__}: {exc}\n")
            continue
        finite = np.isfinite(traj.states).all()
        parts.append(_run_table([traj], state_vars) + _event_table(traj, state_vars) if finite else NON_FINITE)
    return "".join(parts)


def cli_simulate_text(model: str) -> str:
    """The file of ``hyra bench <model> simulate --seeds 3 --out``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "runs.csv"
        with contextlib.redirect_stdout(io.StringIO()):  # the RUN lines
            cli_main(["bench", model, "simulate", "--seeds", str(SEEDS), "--out", str(out)])
        return out.read_text()


def rejection(text: str) -> str:
    try:
        read_json(text)
    except SchemaViolation as exc:
        return str(exc)
    return "accepted"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def suite_support():
    """The test suite's helper module, ``tests/support.py``."""
    sys.path.insert(0, str(REPO_ROOT / "tests"))
    import support

    return support


def fixpoint_configs():
    """(model, label, bundle) of the test suite's fixpoint models, with the check on and off."""
    support = suite_support()
    for make in (support.revisit_bundle, support.late_entry_bundle):
        for fixpoint in (True, False):
            bundle = make(fixpoint)
            yield bundle.automaton.name, f"reach fixpoint={'on' if fixpoint else 'off'}", bundle


def reader_lines():
    support = suite_support()
    for bench in corpus.BenchmarkId:
        model = bench.value
        text = (REPO_ROOT / "corpus" / model / "bundle.json").read_text()
        yield f"{digest(write_json(read_json(text)))}  {model} read_json write_json"
        yield f"{digest(emit_flowstar(read_json(text)))}  {model} read_json emit_flowstar"
    for case in sorted(support.BAD_VALUES):
        yield f"{digest(rejection(support.bad_value_document(case)))}  bouncing-ball read_json {case}"


def config_text(bundle) -> str:
    return emit_config(bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name)


def translation_lines():
    for bench in corpus.BenchmarkId:
        model = bench.value
        bundle = corpus.build(bench)
        yield f"{digest(emit_spaceex(bundle.automaton))}  {model} emit_spaceex"
        yield f"{digest(config_text(bundle))}  {model} emit_config"
        automaton = parse_spaceex((REPO_ROOT / "corpus" / model / "model.xml").read_text())
        parsed = parse_config((REPO_ROOT / "corpus" / model / "config.cfg").read_text(), automaton.vars)
        from_files = ModelBundle(automaton, parsed.settings, parsed.initial)
        yield f"{digest(write_json(from_files))}  {model} parse_spaceex parse_config write_json"
    support = suite_support()
    generated = [support.generated_bundle(seed) for seed in support.GENERATED_SEEDS]
    for name, emit in (("emit_spaceex", lambda bundle: emit_spaceex(bundle.automaton)), ("emit_config", config_text),
                       ("write_json", write_json), ("emit_flowstar", emit_flowstar)):
        yield f"{digest(''.join(map(emit, generated)))}  generated x{len(generated)} {name}"
    yield f"{digest(write_json(support.spelling_bundle()))}  spelling-bundle write_json"


def rejection_text(read, text: str) -> str:
    try:
        read(text)
    except HyraError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"


def rejection_lines():
    model_xml = (REPO_ROOT / "corpus" / "bouncing-ball" / "model.xml").read_text()
    assert model_xml.count(BALL_GUARD) == 1
    table = parse_spaceex(model_xml).vars
    for i, text in enumerate(MALFORMED):
        xml = model_xml.replace(BALL_GUARD, f"<guard>{html.escape(text, quote=False)}</guard>")
        condition = rejection_text(lambda t: parse_condition(t, table), text)
        guard = rejection_text(parse_spaceex, xml)
        yield f"{digest(condition + chr(10) + guard)}  bouncing-ball reject {i:02d} parse_condition parse_spaceex"


def reach_outcome(bundle) -> str:
    """The reach CSV with the verdict, or the ``Type: message`` of the engine error reach raises."""
    try:
        return reach_text(bundle)
    except EngineError as exc:
        return f"{type(exc).__name__}: {exc}"


def overflow_lines():
    support = suite_support()
    cases = [("", support.merge_overflow_bundle()), (" far-narrow", support.merge_overflow_bundle(1e308, 1.5e308))]
    cases += [(f" {case}", support.wide_box_bundle(case)) for case in ("window", "successor")]
    for label, bundle in cases:
        yield f"{digest(reach_outcome(bundle))}  {bundle.automaton.name} reach overflow{label}"


def plot_lines():
    def plot(label, text, x_name, y_name):
        proj = project_csv(text, x_name, y_name)
        yield f"{digest(projection_to_svg(proj))}  {label} svg"
        yield f"{digest(projection_to_csv(proj))}  {label} csv"

    for bench in corpus.BenchmarkId:
        bundle = corpus.build(bench)
        x_name, y_name = bundle.settings.output_vars or bundle.automaton.vars.state_vars[:2]
        yield from plot(f"{bench.value} plot reach", reach_text(bundle).split("\n", 1)[1], x_name, y_name)
    ball = corpus.build(corpus.BenchmarkId("bouncing-ball"))
    state_vars = ball.automaton.vars.state_vars
    x0 = sample_initial(ball.initial.box, 1, 0)[0]
    traj = simulate(ball, x0, Integrator.HEUN, SimOptions(step=ball.settings.step))
    yield from plot("bouncing-ball plot trajectory", _run_table([traj], state_vars), "x", "v")
    yield from plot(f"bouncing-ball plot cli simulate --seeds {SEEDS}", cli_simulate_text("bouncing-ball"), "x", "v")


def degenerate_plot_lines():
    for value in ("1e308", "-1e308", "3"):
        text = f"{FLOWPIPE_HEADER}\n0,1,q,0,{value},{value},0,1\n"
        try:
            svg = projection_to_svg(project_csv(text, "x", "y"))
        except Exception as exc:  # a crash is an output too
            svg = f"{type(exc).__name__}: {exc}"
        yield f"{digest(svg)}  one-row flowpipe x={value} plot svg"


def cli_outcome(argv) -> str:
    """``exit <code>`` of ``hyra <argv>``, then the ``Type: message`` of the error it reports, or its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    args = build_parser().parse_args(argv)
    try:  # once more without main's handler, which words the error without its type
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args.func(args)
    except HyraError as exc:
        return f"exit {code}\n{type(exc).__name__}: {exc}\n"
    return f"exit {code}\n{out.getvalue()}"


def forbidden_lines():
    folder = REPO_ROOT / "corpus" / "bouncing-ball"
    cfg = (folder / "config.cfg").read_text()
    assert cfg.count("forbidden = v >= 10.7\n") == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.cfg"
        path.write_text(cfg.replace("forbidden = v >= 10.7", "forbidden = v >= 1e999"))
        for command in (["translate", "--to", "json"], ["check"]):
            outcome = cli_outcome([command[0], str(folder / "model.xml"), str(path), *command[1:]])
            yield f"{digest(outcome)}  bouncing-ball forbidden=1e999 {' '.join(command)}"


def cli_text(argv) -> str:
    """``exit <code>`` of ``hyra <argv>``, then its stdout, or its first stderr line when stdout is empty.

    A command line the parser rejects exits with the parser's code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n{out.getvalue() or err.getvalue().split(chr(10), 1)[0]}\n"


def input_error_lines():
    folder = REPO_ROOT / "corpus" / "bouncing-ball"
    with tempfile.TemporaryDirectory() as tmp:
        csv, dangling = Path(tmp) / "pipe.csv", Path(tmp) / "dangling.json"
        csv.write_text(f"{FLOWPIPE_HEADER}\n0,1,q,0,1,2,3,4\n")
        data = json.loads((folder / "bundle.json").read_text())
        data["transitions"][0]["target"] = "nowhere"
        dangling.write_text(json.dumps(data))
        commands = [
            ("bouncing-ball cli translate", ["translate", str(folder / "model.xml"), "--to", "json"]),
            ("bouncing-ball cli reach", ["reach", str(folder / "bundle.json")]),
            ("bouncing-ball cli simulate", ["simulate", str(folder / "model.xml")]),
            ("one-row flowpipe cli plot", ["plot", str(csv), "--x", "x", "--y", "y"]),
        ]
        for label, argv in commands:
            yield f"{digest(cli_text([*argv, '--out', MISSING_OUT]))}  {label} --out missing-directory"
        tank = REPO_ROOT / "corpus" / "tank3" / "model.xml"
        yield f"{digest(cli_text(['simulate', str(tank), '--seed', '-1']))}  tank3 cli simulate --seed -1"
        yield f"{digest(cli_text(['validate', str(dangling)]))}  bouncing-ball cli validate dangling-target json"
    top = repr(sys.float_info.max)
    svg = projection_to_svg(project_csv(f"{FLOWPIPE_HEADER}\n0,1,q,0,-{top},{top},0,1\n", "x", "y"))
    yield f"{digest(svg)}  one-row flowpipe x=-{top}..{top} plot svg"


def not_utf8_lines():
    with tempfile.TemporaryDirectory() as tmp:
        model, csv = Path(tmp) / "model.xml", Path(tmp) / "pipe.csv"
        for path in (model, csv):
            path.write_bytes(NOT_UTF8)
        for label, argv in (("validate", ["validate", str(model)]), ("check", ["check", str(model)]),
                            ("plot", ["plot", str(csv), "--x", "x", "--y", "y"])):
            yield f"{digest(cli_text(argv).replace(tmp, '<tmp>'))}  not-utf8 cli {label}"


def param_lines():
    text = (REPO_ROOT / "corpus" / "bouncing-ball" / "model.xml").read_text()
    assert text.count('value="0.75"') == 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.xml"
        path.write_text(text.replace('value="0.75"', 'value="abc"'))
        for command in ("validate", "check"):
            try:
                outcome = cli_text([command, str(path)])
            except Exception as exc:  # a crash is an output too
                outcome = f"{type(exc).__name__}: {exc}"
            yield f"{digest(outcome)}  bouncing-ball c=abc cli {command}"


def bench_lines():
    for bench in corpus.BenchmarkId:
        step = corpus.build(bench).settings.step / 2
        outcome = cli_text(["bench", bench.value, "check", "--step", repr(step)])
        yield f"{digest(outcome)}  {bench.value} cli bench check --step {step:g}"
    outcome = cli_text(["bench", "bouncing-ball", "validate", "--to", "json"])
    yield f"{digest(outcome)}  bouncing-ball cli bench validate --to json"


def generated_simulate_lines():
    support = suite_support()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow in runs that leave the float range
        for seed in support.GENERATED_SEEDS:
            bundle = support.generated_bundle(seed)
            for kind in (Integrator.HEUN, Integrator.EULER):
                text = simulate_text(bundle, kind, bundle.settings.step)
                yield f"{digest(text)}  {bundle.automaton.name} simulate {kind.value} step={bundle.settings.step:g}"


def generated_reach_lines():
    support = suite_support()
    for seed in support.GENERATED_SEEDS:
        bundle = support.generated_bundle(seed)
        yield f"{digest(reach_outcome(bundle))}  {bundle.automaton.name} reach"


def lines():
    for bench in corpus.BenchmarkId:
        model = bench.value
        bundle = corpus.build(bench)
        configs = [(label, lambda b=b: reach_text(b)) for label, b in reach_configs(model, bundle)]
        for kind in (Integrator.HEUN, Integrator.EULER):
            for step in (bundle.settings.step, bundle.settings.step / 10.0):
                configs.append((f"simulate {kind.value} step={step:g}",
                                lambda b=bundle, k=kind, h=step: simulate_text(b, k, h)))
        configs.append((f"cli simulate --seeds {SEEDS} --out", lambda m=model: cli_simulate_text(m)))
        for label, make in configs:
            yield f"{digest(make())}  {model} {label}"
    for model, label, bundle in fixpoint_configs():
        yield f"{digest(reach_text(bundle))}  {model} {label}"
    coupled = suite_support().coupled_invariant_bundle()
    yield f"{digest(reach_outcome(coupled))}  {coupled.automaton.name} reach"
    yield from reader_lines()
    yield from translation_lines()
    yield from overflow_lines()
    yield from rejection_lines()
    yield from plot_lines()
    yield from degenerate_plot_lines()
    yield from forbidden_lines()
    yield from input_error_lines()
    yield from not_utf8_lines()
    yield from param_lines()
    yield from bench_lines()
    yield from generated_simulate_lines()
    yield from generated_reach_lines()


def main() -> int:
    for line in lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
