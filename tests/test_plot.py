import pytest

from hyra.corpus import build_tank
from hyra.errors import ModelFormatError
from hyra.expressions import format_number
from hyra.plot import Projection, project_csv, projection_to_csv, projection_to_svg
from hyra.reach import reach, segments_to_csv
from hyra.simulate import Integrator, SimOptions, simulate, trajectory_to_csv


def flowpipe_csv():
    bundle = build_tank()
    return segments_to_csv(reach(bundle), bundle.automaton.vars.state_vars)


def trajectory_csv():
    bundle = build_tank()
    traj = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.05))
    return trajectory_to_csv(traj, bundle.automaton.vars.state_vars)


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
    body = trajectory_csv().splitlines()
    merged = ["run," + body[0]]
    merged += [f"0,{line}" for line in body[1:]]
    merged += [f"1,{line}" for line in body[1:]]
    proj = project_csv("\n".join(merged), "x1", "x2")
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
    with pytest.raises(ModelFormatError):
        project_csv("a,b,c\n1,2,3\n", "a", "b")


def _projection_by_rows(text, x_name, y_name):
    """The row-by-row parse ``project_csv`` replaced, kept as its reference."""
    lines = [line for line in text.splitlines() if line.strip()]
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    if header[0] == "time_lo":
        cols = [header.index(f"{end}_{name}") for name in (x_name, y_name) for end in ("lo", "hi")]
        return Projection("flowpipe", x_name, y_name, [tuple(float(r[c]) for c in cols) for r in rows], [])
    xi, yi = header.index(x_name), header.index(y_name)
    points, last_run = [], None
    for r in rows:
        if header[0] == "run" and r[0] != last_run:
            if last_run is not None:
                points.append(None)
            last_run = r[0]
        points.append((float(r[xi]), float(r[yi])))
    return Projection("trajectory", x_name, y_name, [], points)


def _ragged(text):
    """The CSV with blank lines and rows of more, or fewer but enough, cells than the header."""
    lines = text.splitlines()
    lines[2] += ",extra,cells"
    lines[3] = ",".join(lines[3].split(",")[:-1])
    lines.insert(4, "  ")
    return "\n".join(lines) + "\n"


def _runs(text):
    body = text.splitlines()
    return "\n".join(["run," + body[0]] + [f"{run},{line}" for run in (0, 1, 1.0) for line in body[1:]]) + "\n"


@pytest.mark.parametrize("make, x, y", [
    (flowpipe_csv, "x2", "x3"),
    (lambda: _ragged(flowpipe_csv()), "x1", "x2"),
    (trajectory_csv, "x3", "x1"),
    (lambda: _ragged(trajectory_csv()), "x1", "x2"),
    (lambda: _runs(trajectory_csv()), "x2", "x3"),
], ids=["flowpipe", "flowpipe-ragged", "trajectory", "trajectory-ragged", "trajectory-runs"])
def test_projection_matches_the_row_by_row_parse(make, x, y):
    text = make()
    proj, want = project_csv(text, x, y), _projection_by_rows(text, x, y)
    assert proj == want
    assert projection_to_svg(proj) == projection_to_svg(want)
    assert projection_to_csv(proj) == projection_to_csv(want)
