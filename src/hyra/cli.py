"""Command-line front end.

Exit codes (stable contract): 0 success / SafeProved, 1 PossiblyUnsafe,
2 input or parse error, 3 engine error. stdout carries machine-parseable
results only; human-oriented diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import corpus
from .config import parse_config
from .errors import BundleDefects, ConfigError, EngineError, HyraError, ModelDefects, ModelFormatError
from .expressions import format_table
from .flowstar import emit_flowstar
from .interchange import read_json, write_json
from .ir import ModelBundle, condition_defects, validate
from .plot import project_csv, projection_to_csv, projection_to_svg
from .reach import Verdict, reach, segments_to_csv
from .simulate import Integrator, SimOptions, sample_initial, simulate
from .spaceex import emit_spaceex, parse_spaceex

EXIT_OK = 0
EXIT_UNSAFE = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3


def _read_text(path: str) -> str:
    """The file's text, read as UTF-8 whatever the locale."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc


def _read_model(path: str):
    """The model a file holds: a JSON bundle by its suffix, otherwise a SpaceEx automaton that needs its cfg."""
    read = read_json if Path(path).suffix == ".json" else parse_spaceex
    return read(_read_text(path))


def _load_bundle(model_path: str, cfg_path: str | None) -> ModelBundle:
    model = _read_model(model_path)
    if isinstance(model, ModelBundle):
        return model
    if cfg_path is None:
        sibling = Path(model_path).with_name("config.cfg")
        cfg_path = str(sibling) if sibling.exists() else None
    if cfg_path is None:
        raise ModelFormatError(f"no configuration for {model_path}: pass one or place config.cfg next to the model")
    parsed = parse_config(_read_text(cfg_path), model.vars)
    if parsed.initial is None:
        raise ModelFormatError("configuration does not define an initial set (key: initially)")
    if parsed.system is not None and parsed.system != model.name:
        print(f"note: config system {parsed.system!r} differs from model name {model.name!r}", file=sys.stderr)
    if parsed.initial.location not in model.location_names():
        raise ModelFormatError(f"initial location {parsed.initial.location!r} not in model")
    defects = condition_defects(parsed.settings.forbidden, model.vars, "forbidden set")
    if defects:
        raise ConfigError("bundle does not validate: " + "; ".join(map(str, defects)))
    return ModelBundle(model, parsed.settings, parsed.initial)


def _with_step(bundle: ModelBundle, step: float | None) -> ModelBundle:
    """The bundle with its reach step set by ``--step``, for the file and bench forms alike."""
    if step is None:
        return bundle
    try:
        return dataclasses.replace(bundle, settings=dataclasses.replace(bundle.settings, step=step))
    except ValueError as exc:
        raise ModelFormatError(f"--step: {exc}") from exc


def _write_output(text: str, out: str | None):
    """Write ``text`` to the file ``out`` as UTF-8, or to stdout without one; a file that cannot be written,
    or text that stdout cannot encode, is an input error. Commands call this before they print anything
    else, so a failed write prints nothing."""
    if not out:
        try:
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise ModelFormatError(f"cannot write to stdout: {exc}") from exc
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot write {out}: {exc}") from exc


def _verdict_line(result) -> str:
    return (
        f"VERDICT {result.verdict.value} jumps={result.stats.max_depth} "
        f"segments={result.stats.segments} time={result.stats.covered_time:g}"
    )


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args, bundle: ModelBundle | None = None) -> int:
    """``OK``, or one ``DEFECT`` line per defect; a file's are those its read found."""
    if bundle is not None:
        defects = validate(bundle.automaton)
    else:
        try:
            _read_model(args.model)
            defects = ()
        except (BundleDefects, ModelDefects) as exc:
            defects = exc.defects
    _write_output("".join(f"DEFECT {d.code} {d.message}\n" for d in defects) or "OK\n", None)
    return EXIT_INPUT if defects else EXIT_OK


def cmd_translate(args, bundle: ModelBundle | None = None) -> int:
    bundle = bundle or _load_bundle(args.model, args.cfg)
    if args.to == "flowstar":
        text = emit_flowstar(bundle)
    elif args.to == "spaceex":
        text = emit_spaceex(bundle.automaton)
    else:
        text = write_json(bundle)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_reach(args, bundle: ModelBundle | None = None) -> int:
    bundle = _with_step(bundle or _load_bundle(args.model, args.cfg), args.step)
    result = reach(bundle)
    if args.out:
        _write_output(segments_to_csv(result, bundle.automaton.vars.state_vars), args.out)
    print(_verdict_line(result))
    if result.stats.termination is not None:
        print(f"note: exploration ended via {result.stats.termination.value}", file=sys.stderr)
    print(f"note: wall time {result.stats.wall_time:.3f}s", file=sys.stderr)
    return EXIT_OK if result.verdict == Verdict.SAFE_PROVED else EXIT_UNSAFE


def cmd_check(args, bundle: ModelBundle | None = None) -> int:
    bundle = _with_step(bundle or _load_bundle(args.model, args.cfg), args.step)
    result = reach(bundle)
    print(_verdict_line(result))
    return EXIT_OK if result.verdict == Verdict.SAFE_PROVED else EXIT_UNSAFE


def cmd_simulate(args, bundle: ModelBundle | None = None) -> int:
    """Seeded runs: one RUN line each on stdout, all samples to ``--out`` as one ``format_table``."""
    if args.seeds < 1:
        raise ModelFormatError(f"--seeds: need at least 1 run, not {args.seeds}")
    if args.seed < 0:
        raise ModelFormatError(f"--seed: need a seed of at least 0, not {args.seed}")
    bundle = bundle or _load_bundle(args.model, args.cfg)
    kind = Integrator.EULER if args.integrator == "euler" else Integrator.HEUN
    try:
        step = args.step if args.step is not None else bundle.settings.step / 10.0
        options = SimOptions(step, bundle.settings.horizon)  # the horizon checks the step count
    except ValueError as exc:
        raise ModelFormatError(f"--step: {exc}") from exc
    with np.errstate(over="ignore", invalid="ignore"):  # a run out of the float range raises, without warnings
        trajs = [simulate(bundle, x0, kind, options) for x0 in sample_initial(bundle.initial.box, args.seeds, args.seed)]
    if args.out:
        header = ("run", "time", "location", *bundle.automaton.vars.state_vars)
        _write_output(format_table(header, [
            [str(run) for run, traj in enumerate(trajs) for _ in traj.locations],
            np.concatenate([traj.times for traj in trajs]).reshape(-1, 1),
            [loc for traj in trajs for loc in traj.locations],
            np.concatenate([traj.states for traj in trajs]),
        ]), args.out)
    for run, traj in enumerate(trajs):
        print(f"RUN {run} samples={traj.sample_count} events={len(traj.events)} zeno={str(traj.zeno).lower()}")
    return EXIT_OK


def cmd_plot(args, bundle: ModelBundle | None = None) -> int:
    """Project a CSV export; with a bundle, project its own reach result."""
    if bundle is None:
        proj = project_csv(_read_text(args.csv), args.x, args.y)
    else:
        csv_text = segments_to_csv(reach(bundle), bundle.automaton.vars.state_vars)
        x_name, y_name = bundle.settings.output_vars or bundle.automaton.vars.state_vars[:2]
        proj = project_csv(csv_text, args.x or x_name, args.y or y_name)
    text = projection_to_svg(proj) if args.format == "svg" else projection_to_csv(proj)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_bench(args) -> int:
    """Run a file command on a built-in benchmark's bundle instead of a file."""
    try:
        bench = corpus.benchmark_from_name(args.name)
    except KeyError as exc:
        raise ModelFormatError(str(exc.args[0])) from exc
    return COMMANDS[args.subcommand][0](args, corpus.build(bench))


# ---------------------------------------------------------------------------
# Each argument is declared once, as (name, argparse keywords).

_MODEL, _CFG, _CSV = ("model", {}), ("cfg", {"nargs": "?", "default": None}), ("csv", {})
_TO = ("--to", {"choices": ("flowstar", "spaceex", "json"), "default": "flowstar", "required": True})
_OUT = ("--out", {"default": None})
_STEP = ("--step", {"type": float, "default": None})
_INTEGRATOR = ("--integrator", {"choices": ("euler", "heun"), "default": "heun"})
_SEEDS = ("--seeds", {"type": int, "default": 1})
_SEED = ("--seed", {"type": int, "default": 0})
_X = ("--x", {"default": None, "required": True})
_Y = ("--y", {"default": None, "required": True})
_FORMAT = ("--format", {"choices": ("svg", "csv"), "default": "svg"})

# name: (function, help, file positionals, options). ``hyra <name>`` takes the positionals and options;
# ``hyra bench NAME <name>`` takes the same options, none of them required, and hands the function a bundle.
COMMANDS = {
    "validate": (cmd_validate, "structural checks on a model file", (_MODEL,), ()),
    "translate": (cmd_translate, "convert between model formats", (_MODEL, _CFG), (_TO, _OUT)),
    "reach": (cmd_reach, "flowpipe reachability with verdict and CSV export", (_MODEL, _CFG), (_STEP, _OUT)),
    "check": (cmd_check, "verdict only, scripting-friendly", (_MODEL, _CFG), (_STEP,)),
    "simulate": (cmd_simulate, "seeded hybrid trajectories", (_MODEL, _CFG),
                 (_INTEGRATOR, _SEEDS, _SEED, _STEP, _OUT)),
    "plot": (cmd_plot, "project a CSV export to SVG or CSV", (_CSV,), (_X, _Y, _FORMAT, _OUT)),
}


def _add_commands(subparsers, bench: bool):
    for name, (func, help_text, files, options) in COMMANDS.items():
        p = subparsers.add_parser(name, help=help_text)
        for arg, kwargs in () if bench else files:
            p.add_argument(arg, **kwargs)
        for flag, kwargs in options:
            p.add_argument(flag, **(dict(kwargs, required=False) if bench else kwargs))
        p.set_defaults(func=cmd_bench if bench else func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="hyra",
        description="Affine hybrid automata: translate models, compute flowpipes, simulate runs.",
        epilog="Option precedence: command-line flag > configuration file > built-in default.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, bench=False)
    p = sub.add_parser("bench", help="run a command against a built-in benchmark")
    p.add_argument("name")
    _add_commands(p.add_subparsers(dest="subcommand", required=True), bench=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except EngineError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return EXIT_ENGINE
    except HyraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
