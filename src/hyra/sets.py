"""Continuous set representations and the matrix-exponential kernel.

Boxes are axis-aligned interval vectors and zonotopes are center +
generator matrices. Everything here is a pure value: operations return new
objects and never mutate their inputs, and every array a set holds is
read-only. ``clamp_boxes`` is the array form of box-by-condition
intersection that the flowpipe engine runs over whole segment tables.
Conditions are evaluated through one halfspace form, the rows c . x <= d of
``Condition.halfspaces``: invariant and guard clamps, the initial set's
containment test, the safety check and the simulator's chunk margins all
read those rows. A row with a single nonzero coefficient (every row of the
shipped models) is clamped on its one column, which for finite bounds is
the general interval-propagation formula bit for bit (see
``clamp_boxes``). One box against one-variable rows
(``intersect_condition``) is clamped in plain floats from each row's
``(column, c)`` in ``Halfspaces.axis`` by the same operations; tables and
multi-variable rows go through ``clamp_boxes``. Every
caller passes finite bounds: the propagation chunks and the tail segment
after ``reach._require_finite``, emission windows over real rows, stored
segment tables and the boxes tasks start from. Every box center and
radius comes from ``center_radius``, finite for any finite bounds.

Sets are checked where they enter: the public ``Box(...)`` and
``Zonotope(...)`` constructors convert to float and reject non-finite
entries, ``lo > hi`` and shape mismatches. The set operations build their
results with ``_trusted``, which only freezes the arrays they just computed
(``Box.to_zonotope``, ``intersect_condition``, whose clamp of a finite box
is finite with lo <= hi, and ``reach.jump_successors`` for the images of
its guard windows under a reset ``R x + r``, mapped as boxes: center
``R c + r``, radius ``|R| rad``); finite operands can still overflow, so
the engine checks finiteness wherever a result goes on: both Omega0 forms
of ``reach.discretize`` (the chord zonotope and the sub-step box hull,
whose boxes come from the propagation kernel ``reach._box_chunks``), each
chunk of that kernel in ``reach.flowpipe``, the tail segment of
``reach.flowpipe``, the bounds a stored segment reads back
(``reach.Segments.from_bounds``) and each successor box of
``reach.jump_successors``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MatrixOverflow

# Scaling-and-squaring halves the argument until its 1-norm is at or below
# this threshold, then sums the Taylor series.
_EXPM_SCALE_THRESHOLD = 0.5
# Series terms are added until a term's norm drops below this fraction of
# the accumulated result's norm.
_EXPM_TRUNCATION = 1e-16
# Arguments with 1-norm beyond this cannot be squared back meaningfully.
_EXPM_NORM_LIMIT = 1e6

DEFAULT_ORDER_CAP = 20


def center_radius(lo, hi):
    """Center and radius of the box [lo, hi]: (0.5 lo + 0.5 hi, 0.5 hi - 0.5 lo).

    Halving first keeps both finite for every pair of finite bounds. Halving
    a normal float is exact, so wherever 0.5 (lo + hi) and 0.5 (hi - lo) are
    finite and neither they nor the halved bounds are subnormal, the two
    forms are the same bit for bit.
    """
    half_lo, half_hi = 0.5 * lo, 0.5 * hi
    return half_lo + half_hi, half_hi - half_lo


def _as_float_array(a, name):
    out = np.array(a, dtype=float)  # a copy: the set freezes it, not the caller's array
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must have finite entries")
    return out


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box: per-dimension closed intervals [lo_i, hi_i]; compared by value, unhashable."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_float_array(self.lo, "lo")
        hi = _as_float_array(self.hi, "hi")
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DimensionMismatch("box bounds must be equal-length vectors")
        if np.any(lo > hi):
            raise ValueError("box has lo > hi")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "Box":
        """Box of float vectors an operation just computed: frozen, not re-checked."""
        lo.setflags(write=False)
        hi.setflags(write=False)
        box = object.__new__(cls)
        box.__dict__.update(lo=lo, hi=hi)
        return box

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def center(self) -> np.ndarray:
        return center_radius(self.lo, self.hi)[0]

    @property
    def radius(self) -> np.ndarray:
        return center_radius(self.lo, self.hi)[1]

    def hull(self, other: "Box") -> "Box":
        if other.dim != self.dim:
            raise DimensionMismatch("box hull dimension mismatch")
        return Box(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def to_zonotope(self) -> "Zonotope":
        """The box as a zonotope, one generator per non-flat axis."""
        c, r = center_radius(self.lo, self.hi)
        return Zonotope._trusted(c, np.diag(r)[:, r > 0])

    def max_radius(self) -> float:
        """Largest radius over the axes, in floats: max of 0.5 hi - 0.5 lo, as ``center_radius``."""
        return max(0.5 * high - 0.5 * low for low, high in zip(self.lo.tolist(), self.hi.tolist()))

    def sup_norm(self) -> float:
        """Largest infinity-norm over points of the box, in floats: the largest |bound|."""
        return max(map(abs, self.lo.tolist() + self.hi.tolist()))


@dataclass(frozen=True, eq=False)
class Zonotope:
    """Center vector plus an n x p generator matrix (p = 0 is a point); compared by value, unhashable."""

    center: np.ndarray
    generators: np.ndarray

    def __post_init__(self):
        c = _as_float_array(self.center, "center")
        g = _as_float_array(self.generators, "generators")
        if c.ndim != 1:
            raise DimensionMismatch("center must be a vector")
        if g.ndim != 2 or g.shape[0] != c.shape[0]:
            raise DimensionMismatch("generators must be an n x p matrix")
        c.flags.writeable = False
        g.flags.writeable = False
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "generators", g)

    @classmethod
    def _trusted(cls, center: np.ndarray, generators: np.ndarray) -> "Zonotope":
        """Zonotope of float arrays an operation just computed: frozen, not re-checked."""
        center.setflags(write=False)
        generators.setflags(write=False)
        z = object.__new__(cls)
        z.__dict__.update(center=center, generators=generators)
        return z

    def __eq__(self, other) -> bool:
        return (isinstance(other, Zonotope) and np.array_equal(self.center, other.center)
                and np.array_equal(self.generators, other.generators))

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def order(self) -> int:
        return self.generators.shape[1]


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """e^(A t) by scaling-and-squaring with a truncated Taylor series.

    The argument is halved until its 1-norm is <= 0.5, the series is summed
    until terms fall below 1e-16 of the running result, then the result is
    squared back up.
    """
    a = _as_float_array(a, "matrix")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix_exponential needs a square matrix")
    m = a * t
    norm = float(np.linalg.norm(m, 1))
    if not np.isfinite(norm) or norm > _EXPM_NORM_LIMIT:
        raise MatrixOverflow(f"matrix exponential argument norm {norm:g} too large")
    squarings = 0
    while norm > _EXPM_SCALE_THRESHOLD:
        m = m / 2.0
        norm /= 2.0
        squarings += 1
    n = a.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    k = 1
    while True:
        term = term @ m / k
        result = result + term
        if np.linalg.norm(term, 1) < _EXPM_TRUNCATION * np.linalg.norm(result, 1):
            break
        k += 1
        if k > 200:  # series always converges well below this for norm <= 0.5
            break
    for _ in range(squarings):
        result = result @ result
    return result


def exp_with_integral(a, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Return (e^(A t), integral_0^t e^(A s) ds) in one call.

    Uses the block trick exp([[A, I], [0, 0]] t) whose top-right block is the
    integral, so no invertibility assumption on A is needed.
    """
    a = _as_float_array(a, "matrix")
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = a
    block[:n, n:] = np.eye(n)
    big = matrix_exponential(block, t)
    return big[:n, :n], big[:n, n:]


def linear_map(matrix, z: Zonotope) -> Zonotope:
    m = _as_float_array(matrix, "matrix")
    if m.ndim != 2 or m.shape[1] != z.dim:
        raise DimensionMismatch("linear_map dimension mismatch")
    return Zonotope._trusted(m @ z.center, m @ z.generators)


def translate(z: Zonotope, offset) -> Zonotope:
    off = np.asarray(offset, dtype=float)
    if off.shape != z.center.shape:
        raise DimensionMismatch("translate offset dimension mismatch")
    return Zonotope._trusted(z.center + off, z.generators)


def minkowski_sum(z1: Zonotope, z2: Zonotope) -> Zonotope:
    if z1.dim != z2.dim:
        raise DimensionMismatch("minkowski_sum dimension mismatch")
    return Zonotope._trusted(z1.center + z2.center, np.hstack([z1.generators, z2.generators]))


def box_hull(z: Zonotope) -> Box:
    r = np.abs(z.generators).sum(axis=1)
    return Box._trusted(z.center - r, z.center + r)


def hull_zonotope(z1: Zonotope, z2: Zonotope) -> Zonotope:
    """Zonotope enclosure of the union (and chords) of two zonotopes.

    With generator lists padded to equal width p, the enclosure
    [center (c1+c2)/2, generators (G1+G2)/2 | (c1-c2)/2 | (G1-G2)/2]
    contains every point lam*x1 + (1-lam)*x2 with matched coefficients,
    hence both operands.
    """
    if z1.dim != z2.dim:
        raise DimensionMismatch("hull dimension mismatch")
    p = max(z1.order, z2.order)
    mid, diff = center_radius(_pad_columns(z2.generators, p), _pad_columns(z1.generators, p))
    center, shift = center_radius(z2.center, z1.center)
    gens = np.hstack([mid, shift[:, None], diff])
    keep = np.abs(gens).sum(axis=0) > 0.0
    return Zonotope._trusted(center, gens[:, keep])


def _pad_columns(g: np.ndarray, p: int) -> np.ndarray:
    """``g`` widened to ``p`` columns with zero columns."""
    if g.shape[1] == p:
        return g
    out = np.zeros((g.shape[0], p))
    out[:, :g.shape[1]] = g
    return out


def reduce_order(z: Zonotope) -> Zonotope:
    """Cap the generator count at ``DEFAULT_ORDER_CAP`` by boxing the smallest generators.

    The largest (DEFAULT_ORDER_CAP - n) generators by 1-norm are kept verbatim; the
    rest collapse into an axis-aligned block, which can only enlarge the
    set. Ties break on generator index so the result is deterministic.
    """
    n, p = z.dim, z.order
    if p <= DEFAULT_ORDER_CAP:
        return z
    keep_count = max(DEFAULT_ORDER_CAP - n, 0)
    norms = np.abs(z.generators).sum(axis=0)
    order_idx = np.lexsort((np.arange(p), -norms))
    keep = np.sort(order_idx[:keep_count])
    drop = np.sort(order_idx[keep_count:])
    box_radius = np.abs(z.generators[:, drop]).sum(axis=1)
    box_gens = np.diag(box_radius)[:, box_radius > 0]
    return Zonotope._trusted(z.center, np.hstack([z.generators[:, keep], box_gens]))


def clamp_boxes(lo, hi, rows):
    """Clamp every row of (K, n) bound arrays against halfspace rows.

    ``rows`` is a condition's halfspace form (``Condition.halfspaces``):
    rows c . x <= d, each tightening every coordinate with a nonzero
    coefficient by interval propagation (exact for a single halfspace, sound
    for the conjunction). Returns (lo, hi, ok): new bound arrays and a
    per-row flag that is False where some interval emptied. Rows are
    independent; the bounds of a row whose flag is False are meaningless.

    A row whose ``rows.axis`` entry is ``(i, c)``, one nonzero coefficient c
    on column i, is clamped on that column alone: the box meets it iff
    min(c x_i) <= d, and x_i's bound becomes d / c. For finite bounds this is
    the general formula bit for bit (the other terms are signed zeros, so the
    row minimum is c x_i, the rest sums to +0 and the limit is d / c exactly);
    every caller passes finite bounds. The two differ only where c x_i
    overflows to -inf: the general formula reads inf - inf and empties the box.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    ok = np.ones(lo.shape[0], dtype=bool)
    for coeffs, bound, single in zip(rows.coeffs, rows.bounds.tolist(), rows.axis):
        if single is not None:
            i, c = single
            col_lo, col_hi = lo[:, i], hi[:, i]  # views into lo, hi
            if c > 0:
                ok &= c * col_lo <= bound
                np.minimum(col_hi, bound / c, out=col_hi)
            else:
                ok &= c * col_hi <= bound
                np.maximum(col_lo, bound / c, out=col_lo)
            ok &= col_lo <= col_hi
            continue
        # min of coeffs . x over each box, per term
        terms_min = np.where(coeffs >= 0, coeffs * lo, coeffs * hi)
        total_min = terms_min.sum(axis=1)
        ok &= total_min <= bound
        for i in np.flatnonzero(coeffs):
            limit = (bound - (total_min - terms_min[:, i])) / coeffs[i]
            if coeffs[i] > 0:
                hi[:, i] = np.minimum(hi[:, i], limit)
            else:
                lo[:, i] = np.maximum(lo[:, i], limit)
            ok &= lo[:, i] <= hi[:, i]
    return lo, hi, ok


def intersect_condition(box: Box, condition) -> Box | None:
    """One-row ``clamp_boxes`` against a condition: the clamped box, or None when it is empty.

    When every row has one variable (``rows.axis`` holds no None) it runs in floats on each
    ``(i, c)``: the same operations in the same order, with numpy's choice of its second
    operand where minimum and maximum tie.
    """
    rows = condition.halfspaces
    if None in rows.axis:
        lo, hi, ok = clamp_boxes(box.lo[None, :], box.hi[None, :], rows)
        return Box._trusted(lo[0], hi[0]) if ok[0] else None
    lo, hi = box.lo.tolist(), box.hi.tolist()
    for (i, c), bound in zip(rows.axis, rows.bounds.tolist()):
        limit = bound / c
        if c > 0:
            meets = c * lo[i] <= bound
            hi[i] = hi[i] if hi[i] < limit else limit
        else:
            meets = c * hi[i] <= bound
            lo[i] = lo[i] if lo[i] > limit else limit
        if not (meets and lo[i] <= hi[i]):
            return None
    return Box._trusted(np.array(lo), np.array(hi))
