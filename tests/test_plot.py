import functools
import math
import re

import pytest

import support
from hyra import corpus
from hyra.cli import main as cli_main
from hyra.corpus import build_tank
from hyra.errors import ModelFormatError
from hyra.expressions import format_number
from hyra.plot import Projection, project_csv, projection_to_csv, projection_to_svg
from hyra.reach import reach, segments_to_csv
from hyra.simulate import Integrator, SimOptions, simulate, trajectory_to_csv


def flowpipe_csv():
    bundle = build_tank()
    return segments_to_csv(reach(bundle), bundle.automaton.vars.state_vars)


def trajectory_csv(runs: int = 1):
    bundle = build_tank()
    traj = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.05))
    return trajectory_to_csv([traj] * runs, bundle.automaton.vars.state_vars)


def test_flowpipe_projection_to_rectangles():
    proj = project_csv(flowpipe_csv(), "x2", "x3")
    assert proj.kind == "flowpipe"
    assert proj.rects and not proj.points
    svg = projection_to_svg(proj)
    assert svg.count("<rect") == len(proj.rects) + 1  # + background
    csv = projection_to_csv(proj)
    assert csv.splitlines()[0] == "lo_x2,hi_x2,lo_x3,hi_x3"
    assert len(csv.splitlines()) == 1 + len(proj.rects)


def test_projection_csv_formats_every_value_like_format_number():
    values = [-0.0, 1e22, 1.5e-5, 3.0, float("nan"), float("-inf"), 0.1, 5e-324]
    rects = [tuple(values[:4]), tuple(values[4:])]
    proj = Projection("flowpipe", "x", "y", rects, [])
    expected = ["lo_x,hi_x,lo_y,hi_y"] + [",".join(format_number(v) for v in r) for r in rects]
    assert projection_to_csv(proj) == "\n".join(expected) + "\n"
    assert expected[1:] == ["0,1e+22,1.5e-05,3", "nan,-inf,0.1,5e-324"]
    points = [(1e-7, 2.0), None, (-1e16, 0.5)]
    proj = Projection("trajectory", "x", "y", [], points)
    assert projection_to_csv(proj) == "x,y\n1e-07,2\n-1e+16,0.5\n"
    assert projection_to_csv(Projection("trajectory", "x", "y", [], [None])) == "x,y\n"


def test_trajectory_projection_to_polyline():
    proj = project_csv(trajectory_csv(), "x1", "x2")
    assert proj.kind == "trajectory"
    svg = projection_to_svg(proj)
    assert svg.count("<polyline") == 1


def test_multi_run_export_breaks_the_polyline():
    proj = project_csv(trajectory_csv(runs=2), "x1", "x2")
    svg = projection_to_svg(proj)
    assert svg.count("<polyline") == 2


def test_svg_is_a_pure_function_of_the_input():
    text = flowpipe_csv()
    a = projection_to_svg(project_csv(text, "x1", "x3"))
    b = projection_to_svg(project_csv(text, "x1", "x3"))
    assert a == b


def test_unknown_variable_rejected():
    with pytest.raises(ModelFormatError):
        project_csv(flowpipe_csv(), "x1", "nope")


def test_unrecognized_header_rejected():
    with pytest.raises(ModelFormatError, match="expected a flowpipe export .* or a trajectory export"):
        project_csv("a,b,c\n1,2,3\n", "a", "b")


def _ragged(text):
    """The CSV with blank lines and rows of more, or fewer but enough, cells than the header."""
    lines = text.splitlines()
    lines[2] += ",extra,cells"
    lines[3] = ",".join(lines[3].split(",")[:-1])
    lines.insert(4, "  ")
    return "\n".join(lines) + "\n"


def _runs(text):
    """The one-run CSV repeated as runs 0, 1 and 1.0."""
    body = text.splitlines()
    rows = [line.partition(",")[2] for line in body[1:]]
    return "\n".join([body[0]] + [f"{run},{row}" for run in (0, 1, 1.0) for row in rows]) + "\n"


@pytest.mark.parametrize("make, x, y", [
    (flowpipe_csv, "x2", "x3"),
    (lambda: _ragged(flowpipe_csv()), "x1", "x2"),
    (trajectory_csv, "x3", "x1"),
    (lambda: _ragged(trajectory_csv()), "x1", "x2"),
    (lambda: _runs(trajectory_csv()), "x2", "x3"),
], ids=["flowpipe", "flowpipe-ragged", "trajectory", "trajectory-ragged", "trajectory-runs"])
def test_projection_matches_the_row_by_row_parse(make, x, y):
    assert_as_reference(make(), x, y)


# ---------------------------------------------------------------------------
# The array passes against the former row-by-row projection and per-rectangle
# SVG writer, kept unchanged in tests/support.py as the reference.

MODELS = [bench.value for bench in corpus.BenchmarkId]
INF, NAN, TOP = math.inf, math.nan, 1.7976931348623157e308


@functools.cache
def corpus_csv(model: str) -> str:
    bundle = corpus.build(corpus.BenchmarkId(model))
    return segments_to_csv(reach(bundle), bundle.automaton.vars.state_vars)


def assert_same_text(got: str, want: str) -> None:
    """Equal texts; else a failure naming the first line that differs, not a diff of the whole texts."""
    if got != want:
        pairs = enumerate(zip(got.splitlines(), want.splitlines()), 1)
        pytest.fail(next((f"line {i}: {g!r} != {w!r}" for i, (g, w) in pairs if g != w), "the texts differ in length"))


def assert_draws_as_reference(proj: Projection, want: Projection) -> None:
    """``projection_to_svg`` gives the reference's SVG byte for byte, except where every value is finite
    and the reference draws NaN or an infinity, because the padded range of an axis passes the largest
    float: there the SVG differs only in its axis labels and geometry, which are finite and on the canvas."""
    got, ref = projection_to_svg(proj), support.projection_to_svg(want)
    values = [v for rect in proj.rects for v in rect] + [v for p in proj.points if p is not None for v in p]
    if not (all(map(math.isfinite, values)) and re.search(r">-?inf<|\"-?(nan|inf)\"", ref)):
        assert_same_text(got, ref)
        return
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    assert "nan" not in got and "inf" not in got
    assert len(got_lines) == len(ref_lines) and got_lines[:6] == ref_lines[:6] and got_lines[-1] == ref_lines[-1]
    labels = [float(v) for v in re.findall(r'font-size="11">([^<]*)<', got)]
    assert len(labels) == 4 and all(map(math.isfinite, labels))
    numbers = [float(v) for v in re.findall(r'"(-?\d+\.\d\d)"', "\n".join(got_lines[10:]))]
    assert numbers and all(0.0 <= v <= 800.0 for v in numbers)


def assert_as_reference(text: str, x: str, y: str) -> None:
    """``project_csv`` and both writers give what the reference gives, byte for byte, or the same error."""
    try:
        want = support.project_csv(text, x, y)
    except ModelFormatError as exc:
        with pytest.raises(ModelFormatError) as got:
            project_csv(text, x, y)
        assert str(got.value) == str(exc)
        return
    proj = project_csv(text, x, y)
    assert_same_text(repr(proj), repr(want))  # repr tells NaN, -0.0 and 0.0 apart
    assert_draws_as_reference(proj, want)
    assert_same_text(projection_to_csv(proj), projection_to_csv(want))


@pytest.mark.parametrize("model", MODELS)
def test_every_corpus_csv_projects_and_draws_as_the_reference(model):
    names = corpus.build(corpus.BenchmarkId(model)).automaton.vars.state_vars
    for x, y in {names[:2], names[-2:], (names[-1], names[0]), (names[0], names[0])}:
        assert_as_reference(corpus_csv(model), x, y)


@pytest.mark.parametrize("model", MODELS)
def test_trajectory_and_multi_run_csvs_draw_as_the_reference(model, tmp_path):
    bundle = corpus.build(corpus.BenchmarkId(model))
    names = bundle.automaton.vars.state_vars
    traj = simulate(bundle, bundle.initial.box.lo, Integrator.HEUN, SimOptions(step=bundle.settings.step))
    runs = tmp_path / "runs.csv"
    assert cli_main(["bench", model, "simulate", "--seeds", "3", "--out", str(runs)]) == 0
    for text in (trajectory_to_csv([traj], names), runs.read_text()):
        assert_as_reference(text, names[0], names[1])
        assert_as_reference(text, names[-1], names[0])
    assert projection_to_svg(project_csv(runs.read_text(), *names[:2])).count("<polyline") == 3


EDGE_PROJECTIONS = {
    "no-rectangles": ([], []),
    "single-rectangle": ([(1.0, 2.0, 3.0, 4.0)], []),
    "zero-width-x": ([(1.0, 1.0, 0.0, 5.0), (1.0, 1.0, 2.0, 3.0)], []),
    "zero-width-y": ([(0.0, 5.0, 2.0, 2.0)], []),
    "single-point-rectangle": ([(3.0, 3.0, -1.0, -1.0)], []),
    "one-value-below-2**53": ([(2.0**53 - 1, 2.0**53 - 1, -(2.0**53 - 1), -(2.0**53 - 1))], []),
    "below-0.2-px": ([(0.0, 1000.0, 0.0, 1000.0), (1.0, 1.0001, 2.0, 2.00001), (5.0, 5.0, 7.0, 7.0)], []),
    "near-max-float": ([(-1e308, 1e308, -TOP, TOP), (1e308, 1.5e308, -1.5e308, -1e308)], []),
    "narrow-far": ([(1e308, 1.5e308, -1.5e308, -1e308), (1.2e308, 1.3e308, -1.2e308, -1.1e308)], []),
    "at-max-float": ([(TOP, TOP, 0.0, 1.0), (-TOP, -TOP, 0.0, 1.0)], []),
    "signed-zeros": ([(0.0, 1.0, -0.0, 0.0), (-0.0, 0.0, 0.0, -0.0)], []),
    "negative-zero-first": ([(-0.0, 0.0, -0.0, 0.0)], []),
    "nan-first": ([(NAN, 1.0, 0.0, 1.0), (0.0, NAN, NAN, 2.0)], []),
    "nan-later": ([(0.0, 1.0, 0.0, 1.0), (NAN, 2.0, 0.0, INF)], []),
    "infinite": ([(-INF, INF, 0.0, 1.0)], []),
    "polyline-breaks": ([], [(0.0, 0.0), None, (1.0, 2.0), (3.0, -1.0), None, None, (5.0, 5.0)]),
    "leading-break": ([], [None, (1.0, 2.0), (1.0, 2.0)]),
    "only-breaks": ([], [None, None]),
    "single-point": ([], [(1.0, 1.0)]),
    "rectangles-and-points": ([(0.0, 1.0, 0.0, 1.0)], [(2.0, -3.0), None, (-0.0, 1e-9)]),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(EDGE_PROJECTIONS))
def test_edge_projections_draw_as_the_reference(case):
    rects, points = EDGE_PROJECTIONS[case]
    proj = Projection("flowpipe" if rects else "trajectory", "x", "y", rects, points)
    assert_draws_as_reference(proj, proj)


def test_narrow_rectangles_get_the_minimum_size():
    svg = projection_to_svg(Projection("flowpipe", "x", "y", EDGE_PROJECTIONS["below-0.2-px"][0], []))
    assert svg.count('width="0.20" height="0.20"') == 2


FLOWPIPE_HEADER = "time_lo,time_hi,location,jump_depth,lo_x,hi_x,lo_y,hi_y"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["1e308", "-1e308", "9007199254740992", repr(TOP), repr(-TOP)])
@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("kind", ["flowpipe", "trajectory"])
def test_one_value_where_adding_one_changes_nothing_still_draws(kind, axis, value, tmp_path):
    def row(other):
        return (value, other) if axis == "x" else (other, value)

    if kind == "flowpipe":
        (x_lo, y_lo), (x_hi, y_hi) = row("0"), row("1")
        text = FLOWPIPE_HEADER + f"\n0,1,q,0,{x_lo},{x_hi},{y_lo},{y_hi}\n"
    else:
        rows = "".join(f"0,{t},q,{','.join(row(other))}\n" for t, other in ((0, "2"), (1, "3")))
        text = "run,time,location,x,y\n" + rows
    path, out = tmp_path / "in.csv", tmp_path / "out.svg"
    path.write_text(text)
    assert cli_main(["plot", str(path), "--x", "x", "--y", "y", "--out", str(out)]) == 0
    svg = out.read_text()
    assert "nan" not in svg and "inf" not in svg
    x_min, x_max, y_min, y_max = (float(v) for v in re.findall(r'font-size="11">([^<]*)<', svg))
    assert x_min < x_max and y_min < y_max
    drawn = svg.split("<rect")[2:] if kind == "flowpipe" else [svg.split("<polyline points=")[1]]
    assert len(drawn) == 1
    numbers = [float(v) for v in re.findall(r"-?\d+\.\d\d", drawn[0])]
    assert numbers and all(0.0 <= v <= 800.0 for v in numbers)

@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("axis", ["x", "y"])
def test_values_spanning_the_whole_float_range_draw_finite(axis, tmp_path, capsys):
    lo_x, hi_x, lo_y, hi_y = (repr(-TOP), repr(TOP), "0", "1") if axis == "x" else ("0", "1", repr(-TOP), repr(TOP))
    path = tmp_path / "in.csv"
    path.write_text(FLOWPIPE_HEADER + f"\n0,1,q,0,{lo_x},{hi_x},{lo_y},{hi_y}\n")
    assert cli_main(["plot", str(path), "--x", "x", "--y", "y"]) == 0
    svg = capsys.readouterr().out
    assert "nan" not in svg and "inf" not in svg
    labels = re.findall(r'font-size="11">([^<]*)<', svg)
    full = ["-1.7976931348623157e+308", "1.7976931348623157e+308"]
    assert labels[:2] == (full if axis == "x" else ["-0.05", "1.05"])
    assert labels[2:] == (full if axis == "y" else ["-0.05", "1.05"])
    (rect,) = svg.split("<rect")[2:]
    x, y, width, height = (float(v) for v in re.findall(r'"(-?\d+\.\d\d)"', rect)[:4])
    drawn = (x, width) if axis == "x" else (y, height)
    assert drawn == (60.0, 680.0 if axis == "x" else 480.0)


MALFORMED_CSVS = {
    "empty": "",
    "blank": "\n  \n\t\n",
    "unknown-header": "a,b,c\n1,2,3\n",
    "missing-variable": FLOWPIPE_HEADER + "\n0,1,q,0,1,2,3,4\n",
    "short-row": FLOWPIPE_HEADER + "\n0,1,q,0,1,2,3,4\n\n0,1,q,0,1,2\n",
    "not-a-number": FLOWPIPE_HEADER + "\n0,1,q,0,1,2,3,4\n0,1,q,0,1,two,3,4\n",
    "number-after-short-row": FLOWPIPE_HEADER + "\n0,1,q,0,1\n0,1,q,0,x,2,3,4\n",
    "trajectory-short-row": "run,time,location,x,y\n0,0,q,1,2\n0,0.5,q\n",
    "trajectory-not-a-number": "run,time,location,x,y\n0,0,q,1,2\n0,0.5,q,1,nope\n",
    "trajectory-without-run-column": "time,location,x,y\n0,q,1,2\n",
    "runs-not-a-number": "run,time,location,x,y\n0,0,q,1,2\n1,0,q,--1,2\n",
    "near-max-float": FLOWPIPE_HEADER + "\n0,1,q,0,-1e308,1e308,-1.7e308,1.7976931348623157e308\n",
    "numbers-python-reads": FLOWPIPE_HEADER + "\n0,1,q,0, 1_0,1e1 ,nan,-inf\n0,1,q,0,infinity,-0,+.5,1E-320\n",
    "header-only": FLOWPIPE_HEADER + "\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(MALFORMED_CSVS))
def test_small_and_malformed_csvs_give_the_reference_projection_or_message(case):
    text = MALFORMED_CSVS[case]
    for x, y in (("x", "y"), ("y", "x"), ("x", "z")):
        assert_as_reference(text, x, y)
