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
from .errors import BundleDefects, ConfigError, EngineError, HyraError, ModelFormatError
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
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc


def _load_bundle(model_path: str, cfg_path: str | None, step_override: float | None) -> ModelBundle:
    path = Path(model_path)
    if path.suffix == ".json":
        bundle = read_json(_read_text(model_path))
    else:
        automaton = parse_spaceex(_read_text(model_path))
        if cfg_path is None:
            sibling = path.with_name("config.cfg")
            cfg_path = str(sibling) if sibling.exists() else None
        if cfg_path is None:
            raise ModelFormatError(
                f"no configuration for {model_path}: pass one or place config.cfg next to the model"
            )
        parsed = parse_config(_read_text(cfg_path), automaton.vars)
        if parsed.initial is None:
            raise ModelFormatError("configuration does not define an initial set (key: initially)")
        if parsed.system is not None and parsed.system != automaton.name:
            print(
                f"note: config system {parsed.system!r} differs from model name {automaton.name!r}",
                file=sys.stderr,
            )
        if parsed.initial.location not in automaton.location_names():
            raise ModelFormatError(f"initial location {parsed.initial.location!r} not in model")
        defects = condition_defects(parsed.settings.forbidden, automaton.vars, "forbidden set")
        if defects:
            raise ConfigError("bundle does not validate: " + "; ".join(map(str, defects)))
        bundle = ModelBundle(automaton, parsed.settings, parsed.initial)
    if step_override is not None:
        try:
            settings = dataclasses.replace(bundle.settings, step=step_override)
        except ValueError as exc:
            raise ModelFormatError(f"--step: {exc}") from exc
        bundle = dataclasses.replace(bundle, settings=settings)
    return bundle


def _write_output(text: str, out: str | None):
    """Write ``text`` to the file ``out``, or to stdout without one; a file that cannot be written is an
    input error. Commands call this before they print anything else, so a failed write prints nothing."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
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
    """``OK``, or one ``DEFECT`` line per defect; a JSON bundle's are those its read found."""
    if bundle is not None:
        defects = validate(bundle.automaton).defects
    elif Path(args.model).suffix == ".json":
        try:
            read_json(_read_text(args.model))
            defects = ()
        except BundleDefects as exc:
            defects = exc.defects
    else:
        defects = validate(parse_spaceex(_read_text(args.model), validated=False)).defects
    if not defects:
        print("OK")
        return EXIT_OK
    for defect in defects:
        print(f"DEFECT {defect.code} {defect.message}")
    return EXIT_INPUT


def cmd_translate(args, bundle: ModelBundle | None = None) -> int:
    bundle = bundle or _load_bundle(args.model, args.cfg, None)
    if args.to == "flowstar":
        text = emit_flowstar(bundle)
    elif args.to == "spaceex":
        text = emit_spaceex(bundle.automaton)
    else:
        text = write_json(bundle)
    _write_output(text, args.out)
    return EXIT_OK


def cmd_reach(args, bundle: ModelBundle | None = None) -> int:
    bundle = bundle or _load_bundle(args.model, args.cfg, args.step)
    result = reach(bundle)
    if args.out:
        _write_output(segments_to_csv(result, bundle.automaton.vars.state_vars), args.out)
    print(_verdict_line(result))
    if result.stats.termination is not None:
        print(f"note: exploration ended via {result.stats.termination.value}", file=sys.stderr)
    print(f"note: wall time {result.stats.wall_time:.3f}s", file=sys.stderr)
    return EXIT_OK if result.verdict == Verdict.SAFE_PROVED else EXIT_UNSAFE


def cmd_check(args, bundle: ModelBundle | None = None) -> int:
    bundle = bundle or _load_bundle(args.model, args.cfg, args.step)
    result = reach(bundle)
    print(_verdict_line(result))
    return EXIT_OK if result.verdict == Verdict.SAFE_PROVED else EXIT_UNSAFE


def cmd_simulate(args, bundle: ModelBundle | None = None) -> int:
    """Seeded runs: one RUN line each on stdout, all samples to ``--out`` as one ``format_table``."""
    if args.seeds < 1:
        raise ModelFormatError(f"--seeds: need at least 1 run, not {args.seeds}")
    if args.seed < 0:
        raise ModelFormatError(f"--seed: need a seed of at least 0, not {args.seed}")
    bundle = bundle or _load_bundle(args.model, args.cfg, None)
    kind = Integrator.EULER if args.integrator == "euler" else Integrator.HEUN
    try:
        options = SimOptions(step=args.step if args.step is not None else bundle.settings.step / 10.0)
    except ValueError as exc:
        raise ModelFormatError(f"--step: {exc}") from exc
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


_FILE_COMMANDS = {"check": cmd_check, "reach": cmd_reach, "validate": cmd_validate,
                  "translate": cmd_translate, "simulate": cmd_simulate, "plot": cmd_plot}


def cmd_bench(args) -> int:
    """Run a file command on a built-in benchmark's bundle instead of a file."""
    try:
        bench = corpus.benchmark_from_name(args.name)
    except KeyError as exc:
        raise ModelFormatError(str(exc.args[0])) from exc
    return _FILE_COMMANDS[args.subcommand](args, corpus.build(bench))


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="hyra",
        description="Affine hybrid automata: translate models, compute flowpipes, simulate runs.",
        epilog="Option precedence: command-line flag > configuration file > built-in default.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural checks on a model file")
    p.add_argument("model")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("translate", help="convert between model formats")
    p.add_argument("model")
    p.add_argument("cfg", nargs="?", default=None)
    p.add_argument("--to", choices=("flowstar", "spaceex", "json"), required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("reach", help="flowpipe reachability with verdict and CSV export")
    p.add_argument("model")
    p.add_argument("cfg", nargs="?", default=None)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reach)

    p = sub.add_parser("check", help="verdict only, scripting-friendly")
    p.add_argument("model")
    p.add_argument("cfg", nargs="?", default=None)
    p.add_argument("--step", type=float, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="seeded hybrid trajectories")
    p.add_argument("model")
    p.add_argument("cfg", nargs="?", default=None)
    p.add_argument("--integrator", choices=("euler", "heun"), default="heun")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("plot", help="project a CSV export to SVG or CSV")
    p.add_argument("csv")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("bench", help="run a command against a built-in benchmark")
    p.add_argument("name")
    p.add_argument(
        "subcommand",
        choices=tuple(_FILE_COMMANDS),
    )
    p.add_argument("--to", choices=("flowstar", "spaceex", "json"), default="flowstar")
    p.add_argument("--integrator", choices=("euler", "heun"), default="heun")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--format", choices=("svg", "csv"), default="svg")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench, step=None)

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
