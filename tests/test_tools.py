import re
import subprocess
import sys

from support import REPO_ROOT


def test_pair_ab_compares_this_tree_with_itself():
    run = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "pair_ab.py"), str(REPO_ROOT / "src"),
         "--workload", "reach-deep", "--passes", "2", "--seed", "3"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    lines = run.stdout.splitlines()
    assert lines[0].startswith("reach-deep, seed 3: 6 operations per pass")
    assert [line.split(":")[0] for line in lines[1:3]] == ["pair 0", "pair 1"]
    assert "this first" in lines[1] and "other first" in lines[2]
    summary = re.fullmatch(r"ratio other/this: median (\S+), IQR \[(\S+), (\S+)\], "
                           r"this tree faster in (\d) of 2 pairs", lines[3])
    assert summary is not None
    low, median, high = (float(summary[i]) for i in (2, 1, 3))
    assert 0.0 < low <= median <= high
