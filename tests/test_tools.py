import dataclasses
import importlib.util
import os
import re
import subprocess
import sys

from support import CORPUS_DIR, REPO_ROOT


def test_gen_corpus_writes_the_committed_fixtures_byte_for_byte(tmp_path):
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, str(REPO_ROOT / "tools" / "gen_corpus.py"), str(tmp_path)],
                   env={**os.environ, "PYTHONPATH": path}, capture_output=True, timeout=300, check=True)
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert written == sorted(p.relative_to(CORPUS_DIR) for p in CORPUS_DIR.rglob("*") if p.is_file())
    assert len(written) == 20
    for name in written:
        assert (tmp_path / name).read_bytes() == (CORPUS_DIR / name).read_bytes(), name


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



def test_pair_ab_compares_a_field_of_one_tree_with_a_property_of_the_other(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script sets these when imported; the test puts them back
    spec = importlib.util.spec_from_file_location("pair_ab", REPO_ROOT / "tools" / "pair_ab.py")
    pair_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair_ab)
    # one record of two trees: ``hi`` is a field of one and a property of the other
    fields = dataclasses.make_dataclass("Bounds", ["lo", "hi"])
    width = dataclasses.make_dataclass("Bounds", ["lo", "width"],
                                       namespace={"hi": property(lambda self: self.lo + self.width)})
    assert pair_ab.same(fields(0.0, 2.0), width(0.0, 2.0))
    assert not pair_ab.same(fields(0.0, 1.0), width(0.0, 2.0))
    assert not pair_ab.same(width(0.0, 2.0), fields(0.0, 1.0))
