"""2-d projections of flowpipe CSVs and trajectory CSVs.

Flowpipe rows project to outlined rectangles (the segment box hulls),
trajectories to a polyline. The SVG writer is hand-rolled so output is a
pure function of the input bytes: no timestamps, no generated ids. Both
steps work in array passes: the CSV is checked and converted once, at the
reader, and the SVG geometry is numpy arithmetic written by ``%`` templates.
"""

from __future__ import annotations

import math
import sys
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


def _numbers(split: list, columns) -> list:
    """The tuple of the numbers in ``columns`` of each split row, converted in one pass over the rows;
    IndexError for a row too short for a column, ValueError for a cell that is no number."""
    return list(zip(*[map(float, map(itemgetter(col), split)) for col in columns]))


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
    """The rectangles of a flowpipe CSV or the polyline of a trajectory CSV in ``x_name`` and ``y_name``:
    each data row is split once, up to the last column needed, and those cells converted in one pass."""
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
            rects = _numbers(list(map(str.split, rows, repeat(","), repeat(max(columns) + 1))), columns)
        except (ValueError, IndexError):
            raise _malformed(text, columns) from None
        return Projection("flowpipe", x_name, y_name, rects, [])
    if header[:2] == ["time", "location"] or header[:3] == ["run", "time", "location"]:
        try:
            xi = header.index(x_name)
            yi = header.index(y_name)
        except ValueError as exc:
            raise ModelFormatError(f"variable not present in trajectory CSV: {exc}") from exc
        split = list(map(str.split, rows, repeat(","), repeat(max(xi, yi) + 1)))
        try:
            pairs = _numbers(split, (xi, yi))
        except (ValueError, IndexError):
            raise _malformed(text, (xi, yi)) from None
        if header[0] != "run":
            return Projection("trajectory", x_name, y_name, [], pairs)
        # multi-run exports break the polyline between runs
        points: list = []
        start = 0
        for _, run in groupby(map(itemgetter(0), split)):
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


_RECT = ('<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
         'fill="steelblue" fill-opacity="0.25" stroke="steelblue" stroke-width="0.5"/>')


def _bounds(values: np.ndarray) -> tuple:
    """``min`` and ``max`` of the values as the builtins give them over a list, which count a NaN only
    when it comes first; the sign of a zero bound, which they may give otherwise, shows nowhere."""
    if np.isnan(values).any():
        listed = values.tolist()
        return min(listed), max(listed)
    return float(values.min()), float(values.max())


def _widened(lo: float, hi: float) -> tuple:
    """An axis range from ``lo`` to ``hi`` that is not empty: one value v widens to [v, v + 1], or, where
    v + 1.0 is v (|v| >= 2**53), toward zero by |v| / 2**50, a few units in the last place, so that
    neither the widening nor the 5% padding of the range passes the largest float."""
    if hi != lo:
        return lo, hi
    if lo + 1.0 - lo != 0.0:  # an infinity gives NaN here and keeps [inf, inf], as it always has
        return lo, lo + 1.0
    return (lo - lo * 2**-50, lo) if lo > 0 else (lo, lo - lo * 2**-50)


def _axis(lo: float, hi: float, length: float) -> tuple:
    """The labels of an axis over values from ``lo`` to ``hi``, 5% wider on each side, and ``k``, ``start``
    and ``scale`` that draw a value v at (v * k - start) * scale along ``length``. k is 1 unless finite
    values pad past the largest float; then k is 1/4, where no step overflows, and the axis stops at
    the largest float."""
    lo, hi = _widened(lo, hi)
    pad = 0.05 * (hi - lo)
    start, end = lo - pad, hi + pad
    if math.isfinite(end - start) or not (math.isfinite(lo) and math.isfinite(hi)):
        return start, end, 1.0, start, length / (end - start)
    lo, hi = 0.25 * lo, 0.25 * hi
    pad = 0.05 * (hi - lo)
    start, end = max(lo - pad, -0.25 * sys.float_info.max), min(hi + pad, 0.25 * sys.float_info.max)
    return 4.0 * start, 4.0 * end, 0.25, start, length / (end - start)


@np.errstate(all="ignore")  # an overflow or inf - inf gives inf or NaN silently, as Python floats do
def projection_to_svg(proj: Projection) -> str:
    """The SVG of a projection, its geometry in array passes that take the IEEE operations of per-point
    Python arithmetic in the same order, and every ``<rect>`` line from one ``%`` template."""
    rects = np.fromiter(chain.from_iterable(proj.rects), float, 4 * len(proj.rects)).reshape(-1, 4)
    kept = [p for p in proj.points if p is not None]
    points = np.fromiter(chain.from_iterable(kept), float, 2 * len(kept)).reshape(-1, 2)
    xs = np.concatenate([rects[:, :2].ravel(), points[:, 0]])
    ys = np.concatenate([rects[:, 2:].ravel(), points[:, 1]])
    if xs.size:
        (x_min, x_max), (y_min, y_max) = _bounds(xs), _bounds(ys)
    else:
        x_min, x_max, y_min, y_max = 0.0, 1.0, 0.0, 1.0
    x_min, x_max, kx, x0, sx = _axis(x_min, x_max, _CANVAS_W - 2 * _MARGIN)
    y_min, y_max, ky, y0, sy = _axis(y_min, y_max, _CANVAS_H - 2 * _MARGIN)

    def px(x):
        return _MARGIN + (x * kx - x0) * sx

    def py(y):
        return _CANVAS_H - _MARGIN - (y * ky - y0) * sy

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
    if len(rects):
        x_lo, x_hi, y_lo, y_hi = rects.T
        geometry = (px(x_lo), py(y_hi), np.maximum(px(x_hi) - px(x_lo), 0.2), np.maximum(py(y_lo) - py(y_hi), 0.2))
        out.append("\n".join([_RECT] * len(rects)) % tuple(np.column_stack(geometry).ravel().tolist()))
    coords = np.column_stack((px(points[:, 0]), py(points[:, 1]))).ravel().tolist()
    start = 0
    for is_break, run in groupby(proj.points, lambda p: p is None):
        if not is_break:
            end = start + 2 * len(list(run))
            text = " ".join(["%.2f,%.2f"] * ((end - start) // 2)) % tuple(coords[start:end])
            out.append(f'<polyline points="{text}" fill="none" stroke="firebrick" stroke-width="1.2"/>')
            start = end
    out.append("</svg>")
    return "\n".join(out) + "\n"
