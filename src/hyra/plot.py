"""2-d projections of flowpipe CSVs and trajectory CSVs.

Flowpipe rows project to outlined rectangles (the segment box hulls),
trajectories to a polyline. The SVG writer is hand-rolled so output is a
pure function of the input bytes: no timestamps, no generated ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby, repeat
from operator import itemgetter

import numpy as np

from .errors import ModelFormatError
from .expressions import format_number, format_table

_CANVAS_W = 800.0
_CANVAS_H = 600.0
_MARGIN = 60.0


@dataclass
class Projection:
    kind: str  # "flowpipe" | "trajectory"
    x_name: str
    y_name: str
    rects: list  # (x_lo, x_hi, y_lo, y_hi)
    points: list  # (x, y)


def _parse_csv(text: str) -> tuple:
    """The header cells and the data lines of a CSV text; blank lines are skipped."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ModelFormatError("empty CSV input")
    return lines[0].split(","), lines[1:]


def _cells(rows: list, columns) -> list:
    """The text of each of ``columns`` over the data rows, one list per column.

    Each row is split only up to the last of the columns; a row too short
    for one of them raises IndexError.
    """
    split = list(map(str.split, rows, repeat(","), repeat(max(columns) + 1)))
    return [list(map(itemgetter(col), split)) for col in columns]


def _malformed(text: str, columns) -> ModelFormatError:
    """The error naming the first row whose cells in ``columns`` are not all numbers."""
    numbered = [(number, line) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    for number, line in numbered[1:]:
        row = line.split(",")
        if len(row) <= max(columns):
            return ModelFormatError(f"CSV line {number} has {len(row)} cells, too few for its header")
        for col in columns:
            try:
                float(row[col])
            except ValueError:
                return ModelFormatError(f"CSV line {number}: cell {col + 1} is not a number: {row[col]!r}")
    return ModelFormatError("malformed CSV input")


def project_csv(text: str, x_name: str, y_name: str) -> Projection:
    header, rows = _parse_csv(text)
    if header[:4] == ["time_lo", "time_hi", "location", "jump_depth"]:
        try:
            columns = (
                header.index(f"lo_{x_name}"),
                header.index(f"hi_{x_name}"),
                header.index(f"lo_{y_name}"),
                header.index(f"hi_{y_name}"),
            )
        except ValueError as exc:
            raise ModelFormatError(f"variable not present in flowpipe CSV: {exc}") from exc
        try:
            rects = list(zip(*(map(float, cells) for cells in _cells(rows, columns))))
        except (ValueError, IndexError):
            raise _malformed(text, columns) from None
        return Projection("flowpipe", x_name, y_name, rects, [])
    if header[:2] == ["time", "location"] or header[:3] == ["run", "time", "location"]:
        try:
            xi = header.index(x_name)
            yi = header.index(y_name)
        except ValueError as exc:
            raise ModelFormatError(f"variable not present in trajectory CSV: {exc}") from exc
        try:
            runs, xs, ys = _cells(rows, (0, xi, yi))
            pairs = list(zip(map(float, xs), map(float, ys)))
        except (ValueError, IndexError):
            raise _malformed(text, (xi, yi)) from None
        if header[0] != "run":
            return Projection("trajectory", x_name, y_name, [], pairs)
        # multi-run exports break the polyline between runs
        points: list = []
        start = 0
        for _, run in groupby(runs):
            end = start + len(list(run))
            if start:
                points.append(None)
            points.extend(pairs[start:end])
            start = end
        return Projection("trajectory", x_name, y_name, [], points)
    raise ModelFormatError("unrecognized CSV header; expected a flowpipe or trajectory export")


def projection_to_csv(proj: Projection) -> str:
    """One ``format_table`` line per rectangle (lo and hi of x, then of y) or polyline point (x, y)."""
    if proj.kind == "flowpipe":
        header = [f"lo_{proj.x_name}", f"hi_{proj.x_name}", f"lo_{proj.y_name}", f"hi_{proj.y_name}"]
        rows = proj.rects
    else:
        header = [proj.x_name, proj.y_name]
        rows = [p for p in proj.points if p is not None]
    values = np.fromiter(chain.from_iterable(rows), float, len(rows) * len(header))  # np.array(rows) is 2.5x slower
    return format_table(header, [values.reshape(len(rows), len(header))])


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def projection_to_svg(proj: Projection) -> str:
    xs: list = []
    ys: list = []
    for xl, xh, yl, yh in proj.rects:
        xs.extend((xl, xh))
        ys.extend((yl, yh))
    for point in proj.points:
        if point is not None:
            xs.append(point[0])
            ys.append(point[1])
    if not xs:
        xs = [0.0, 1.0]
        ys = [0.0, 1.0]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    pad_x = 0.05 * (x_max - x_min)
    pad_y = 0.05 * (y_max - y_min)
    x_min -= pad_x
    x_max += pad_x
    y_min -= pad_y
    y_max += pad_y
    sx = (_CANVAS_W - 2 * _MARGIN) / (x_max - x_min)
    sy = (_CANVAS_H - 2 * _MARGIN) / (y_max - y_min)

    def px(x: float) -> float:
        return _MARGIN + (x - x_min) * sx

    def py(y: float) -> float:
        return _CANVAS_H - _MARGIN - (y - y_min) * sy

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_CANVAS_W)}" height="{int(_CANVAS_H)}" '
        f'viewBox="0 0 {int(_CANVAS_W)} {int(_CANVAS_H)}">',
        f'<rect x="0" y="0" width="{int(_CANVAS_W)}" height="{int(_CANVAS_H)}" fill="white"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_CANVAS_H - _MARGIN)}" x2="{_fmt(_CANVAS_W - _MARGIN)}" '
        f'y2="{_fmt(_CANVAS_H - _MARGIN)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(_MARGIN)}" y1="{_fmt(_MARGIN)}" x2="{_fmt(_MARGIN)}" '
        f'y2="{_fmt(_CANVAS_H - _MARGIN)}" stroke="black" stroke-width="1"/>',
        f'<text x="{_fmt(_CANVAS_W / 2)}" y="{_fmt(_CANVAS_H - 15)}" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{proj.x_name}</text>',
        f'<text x="18" y="{_fmt(_CANVAS_H / 2)}" text-anchor="middle" font-family="monospace" '
        f'font-size="14" transform="rotate(-90 18 {_fmt(_CANVAS_H / 2)})">{proj.y_name}</text>',
        f'<text x="{_fmt(_MARGIN)}" y="{_fmt(_CANVAS_H - _MARGIN + 18)}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{format_number(round(x_min, 6))}</text>',
        f'<text x="{_fmt(_CANVAS_W - _MARGIN)}" y="{_fmt(_CANVAS_H - _MARGIN + 18)}" text-anchor="middle" '
        f'font-family="monospace" font-size="11">{format_number(round(x_max, 6))}</text>',
        f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(_CANVAS_H - _MARGIN)}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{format_number(round(y_min, 6))}</text>',
        f'<text x="{_fmt(_MARGIN - 8)}" y="{_fmt(_MARGIN + 4)}" text-anchor="end" '
        f'font-family="monospace" font-size="11">{format_number(round(y_max, 6))}</text>',
    ]
    for xl, xh, yl, yh in proj.rects:
        x = px(xl)
        y = py(yh)
        w = max(px(xh) - px(xl), 0.2)
        h = max(py(yl) - py(yh), 0.2)
        out.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="steelblue" fill-opacity="0.25" stroke="steelblue" stroke-width="0.5"/>'
        )
    if proj.points:
        runs: list = [[]]
        for point in proj.points:
            if point is None:
                runs.append([])
            else:
                runs[-1].append(point)
        for run in runs:
            if not run:
                continue
            coords = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in run)
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="firebrick" stroke-width="1.2"/>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
