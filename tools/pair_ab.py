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
import importlib
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

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

    print(summary("ratio", ratios))
    print(summary("op-time gmean ratio", op_ratios))
    medians = {label: statistics.geometric_mean(statistics.median(op) for op in zip(*t))
               for label, t in op_times.items()}
    print(f"gmean of per-op median times: this {1e3 * medians['this']:.3f} ms, "
          f"other {1e3 * medians['other']:.3f} ms, ratio other/this {medians['other'] / medians['this']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
