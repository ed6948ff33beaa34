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
    assert all("; op-time gmean this " in line for line in lines[1:3])
    op_summary = re.fullmatch(r"op-time gmean ratio other/this: median (\S+), IQR \[(\S+), (\S+)\], "
                              r"this tree faster in (\d) of 2 pairs", lines[4])
    assert op_summary is not None
    low, median, high = (float(op_summary[i]) for i in (2, 1, 3))
    assert 0.0 < low <= median <= high
    medians = re.fullmatch(r"gmean of per-op median times: this (\S+) ms, other (\S+) ms, "
                           r"ratio other/this (\S+)", lines[5])
    assert medians is not None and all(float(medians[i]) > 0.0 for i in (1, 2, 3))
    # one line per group of the workload, in the order of its operations, then the output comparison
    groups = [re.fullmatch(r"group (\S+): median ratio other/this (\S+), this (\S+) ms, other (\S+) ms per pass",
                           line) for line in lines[6:-1]]
    assert all(groups)
    assert [g[1] for g in groups] == ["bouncing-ball.j3", "bouncing-ball.j4", "bouncing-ball.j5",
                                      "tank3.short", "tank3.mid", "tank3.long"]
    assert all(float(g[i]) > 0.0 for g in groups for i in (2, 3, 4))
    assert lines[-1] == "outputs: identical"
