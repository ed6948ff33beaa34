#!/usr/bin/env python3
"""Compare hyra's reach results with those of another source tree.

For each reach configuration of ``tools/fingerprint.py`` (the corpus
configurations and the fixpoint models of the test suite) the script prints
the segment count and verdict of both trees, the largest relative
difference between their box bounds, and the largest ratio of a box width
in this tree to the same box's width in the other. Where the fingerprint
only shows that two trees' outputs differ, this shows by how much and
whether any box widened (a width ratio above 1):

    python3 tools/reach_diff.py /path/to/other/src

Each tree runs in its own interpreter with its ``src`` first on the path;
this tree is the one the script sits in. Bounds are compared when the
segment counts agree. A bound difference is relative to the largest bound
magnitude of its segment in either tree (0 when both bounds are equal); the
width ratio of two equal widths, zero included, is 1.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[1]


def dump(path: str) -> None:
    """Write the verdict, the segment count and the box bounds of every configuration."""
    from fingerprint import fixpoint_configs, reach_configs

    from hyra import corpus
    from hyra.reach import reach

    configs = [(bench.value, label, bundle) for bench in corpus.all_benchmarks()
               for label, bundle in reach_configs(bench.value, corpus.build(bench))]
    arrays, heads = {}, {}
    for model, label, bundle in [*configs, *fixpoint_configs()]:
        key = f"{model} {label}"
        result = reach(bundle)
        heads[key] = [result.verdict.value, len(result.segments)]
        arrays[f"{key}|lo"], arrays[f"{key}|hi"] = result.segments.lo, result.segments.hi
    np.savez(path, heads=json.dumps(heads), **arrays)


def load(src: Path, path: Path):
    """Run ``dump`` in an interpreter that imports hyra from ``src``, and read its file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(REPO_ROOT / "tools")]))
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--dump", str(path)], env=env, check=True)
    return np.load(path)


def relative_difference(this: tuple, other: tuple) -> float:
    """Largest bound difference over the largest bound magnitude of its segment in either tree."""
    diff = np.maximum(np.abs(this[0] - other[0]), np.abs(this[1] - other[1]))
    scale = np.max(np.abs(np.hstack([*this, *other])), axis=1, keepdims=True)
    return float(np.max(np.where(diff == 0.0, 0.0, diff / np.where(scale == 0.0, 1.0, scale)), initial=0.0))


def width_ratio(this_width: np.ndarray, other_width: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(this_width == other_width, 1.0, this_width / other_width)
    return float(np.max(ratio, initial=1.0))


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--dump":
        dump(argv[1])
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        this = load(REPO_ROOT / "src", Path(tmp) / "this.npz")
        other = load(Path(argv[0]).resolve(), Path(tmp) / "other.npz")
        this_heads, other_heads = json.loads(str(this["heads"])), json.loads(str(other["heads"]))
        for key, (verdict, count) in this_heads.items():
            other_verdict, other_count = other_heads[key]
            line = f"{key}: segments {other_count} -> {count}, verdict {other_verdict} -> {verdict}"
            if count == other_count:
                lo, hi, other_lo, other_hi = (run[f"{key}|{side}"] for run in (this, other) for side in ("lo", "hi"))
                bound_diff = relative_difference((lo, hi), (other_lo, other_hi))
                ratio = width_ratio(hi - lo, other_hi - other_lo)
                line += f", max rel bound diff {bound_diff:.2g}, max width ratio {ratio:.17g}"
            else:
                line += ", bounds not compared"
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
