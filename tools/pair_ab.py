#!/usr/bin/env python3
"""Time one benchmark workload on this tree and on another, in alternating passes.

    python3 tools/pair_ab.py /path/to/other/src --workload reach-deep [--passes 20] [--seed 1]

Both trees run in one interpreter. This tree's ``hyra`` is imported from its
``src``; the other tree's package is copied into a temporary directory under
a new name and imported from there (its modules import each other
relatively, so the copy is a complete package of its own). Each tree gets
the operations of the workload from ``benchmark/workloads.py``, built with
the same seed; the script only reads that file. After one warm-up pass per
tree it runs pairs of whole passes, one pass per tree, and swaps which tree
goes first from pair to pair. It prints, per pair, the two pass times and
their ratio (other over this, above 1 when this tree is faster), then the
median ratio, its interquartile range and the number of pairs this tree won.
Pass time tracks the benchmark's ``ops_per_s``. Next to it, per pair and in
the same summary, it prints the ratio of the two trees' geometric means of
their operations' times, which tracks ``op_ms.gmean``; the summary's
geometric means are taken over each operation's median time across pairs.
Last comes one line per group of operations (a model, an instance or a
command, as the workload groups them) with the median over pairs of that
group's time ratio, so a change that helps one model and slows another
shows.

Then it runs every operation once more on each tree and compares the two
outputs: reach results column by column, trajectories field by field and
CLI runs by exit code, stdout and stderr. Numbers compare by their bits, so
a sign of zero counts. A record compares on every field of either tree's
record that both objects have as an attribute, so a field that the other
tree computes as a property still counts; the rest, and the timing
``ReachStats.wall_time``, are left out. The last line is
``outputs: identical``, or names the first operation whose outputs differ,
and then the script exits with status 1.

Passes of the two trees that alternate within one process see the same
drift of a shared machine, so their ratio spreads far less than the
``ops_per_s`` of back-to-back benchmark runs. This sizes a change; the
``BENCH_*.json`` records still come from ``benchmark/run.py``.
"""

from __future__ import annotations

import os

# One BLAS thread, as in benchmark/run.py.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import enum
import importlib
import shutil
import statistics
import struct
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]
OTHER_PACKAGE = "hyra_pair_ab_other"


def load_modules(package: str, package_dir: Path) -> SimpleNamespace:
    """Every module of a hyra package, as the attributes the workloads look up (``mods.reach``, ...)."""
    names = sorted(p.stem for p in package_dir.glob("*.py") if p.stem != "__init__")
    return SimpleNamespace(**{name: importlib.import_module(f"{package}.{name}") for name in names})


def timed_pass(ops) -> list:
    """The time of each operation, in order."""
    times = []
    for op in ops:
        started = time.perf_counter()
        op.run()
        times.append(time.perf_counter() - started)
    return times


def same(a, b) -> bool:
    """Whether two outputs of the trees are the same, bit for bit (see the module docstring)."""
    if dataclasses.is_dataclass(a) and dataclasses.is_dataclass(b):
        names = dict.fromkeys(f.name for record in (a, b) for f in dataclasses.fields(record))
        return type(a).__name__ == type(b).__name__ and all(
            same(getattr(a, name), getattr(b, name)) for name in names
            if name != "wall_time" and hasattr(a, name) and hasattr(b, name))
    if isinstance(a, enum.Enum) and isinstance(b, enum.Enum):
        return a.value == b.value
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        if a.dtype == object or b.dtype == object:
            return a.dtype == b.dtype and a.shape == b.shape and same(a.tolist(), b.tolist())
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return type(a) is type(b) and a == b


def summary(name: str, ratios: list) -> str:
    low, median, high = statistics.quantiles(ratios, n=4, method="inclusive") if len(ratios) > 1 else ratios * 3
    wins = sum(r > 1.0 for r in ratios)
    return (f"{name} other/this: median {median:.3f}, IQR [{low:.3f}, {high:.3f}], "
            f"this tree faster in {wins} of {len(ratios)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_src", type=Path, help="the other tree's src directory (it holds hyra/)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=20, help="pairs of passes (default 20)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    other_dir = args.other_src.resolve() / "hyra"
    if not (other_dir / "__init__.py").is_file():
        parser.error(f"{other_dir} is not a hyra package")
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    sys.dont_write_bytecode = True  # leave benchmark/ as it is
    sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT / "benchmark")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    other_root = args.other_src.resolve().parent
    if not (other_root / "corpus").is_dir():
        other_root = REPO_ROOT

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(other_dir, tmp / "packages" / OTHER_PACKAGE,
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, str(tmp / "packages"))
        trees = {}
        for label, package, package_dir, root in (
                ("this", "hyra", REPO_ROOT / "src" / "hyra", REPO_ROOT),
                ("other", OTHER_PACKAGE, tmp / "packages" / OTHER_PACKAGE, other_root)):
            mods = load_modules(package, package_dir)
            workdir = tmp / label
            workdir.mkdir()
            trees[label] = workloads.WORKLOADS[args.workload]().setup(mods, args.seed, root, workdir)
            timed_pass(trees[label])  # warm-up
        groups = [op.group for op in trees["this"]]
        print(f"{args.workload}, seed {args.seed}: {len(trees['this'])} operations per pass; "
              f"this tree {REPO_ROOT / 'src'}, other tree {args.other_src.resolve()}")
        ratios, op_ratios = [], []
        op_times = {"this": [], "other": []}  # per pair, each operation's time
        for pair in range(args.passes):
            order = ("this", "other") if pair % 2 == 0 else ("other", "this")
            times = {label: timed_pass(trees[label]) for label in order}
            seconds = {label: sum(t) for label, t in times.items()}
            gmeans = {label: statistics.geometric_mean(t) for label, t in times.items()}
            for label, t in times.items():
                op_times[label].append(t)
            ratios.append(seconds["other"] / seconds["this"])
            op_ratios.append(gmeans["other"] / gmeans["this"])
            print(f"pair {pair}: {order[0]} first, this {1e3 * seconds['this']:.1f} ms, "
                  f"other {1e3 * seconds['other']:.1f} ms, ratio {ratios[-1]:.3f}; "
                  f"op-time gmean this {1e3 * gmeans['this']:.3f} ms, other {1e3 * gmeans['other']:.3f} ms, "
                  f"ratio {op_ratios[-1]:.3f}", flush=True)
        differing = next((this.key for this, other in zip(trees["this"], trees["other"])
                          if not same(this.run(), other.run())), None)

    print(summary("ratio", ratios))
    print(summary("op-time gmean ratio", op_ratios))
    medians = {label: statistics.geometric_mean(statistics.median(op) for op in zip(*t))
               for label, t in op_times.items()}
    print(f"gmean of per-op median times: this {1e3 * medians['this']:.3f} ms, "
          f"other {1e3 * medians['other']:.3f} ms, ratio other/this {medians['other'] / medians['this']:.3f}")
    for group in dict.fromkeys(groups):
        seconds = {label: [sum(s for s, g in zip(pass_times, groups) if g == group) for pass_times in t]
                   for label, t in op_times.items()}
        group_ratios = [other / this for this, other in zip(seconds["this"], seconds["other"])]
        print(f"group {group}: median ratio other/this {statistics.median(group_ratios):.3f}, "
              f"this {1e3 * statistics.median(seconds['this']):.3f} ms, "
              f"other {1e3 * statistics.median(seconds['other']):.3f} ms per pass")
    if differing is not None:
        print(f"outputs: differ first at {differing}")
        return 1
    print("outputs: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
