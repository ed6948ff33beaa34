"""Flowpipe reachability over affine hybrid automata.

Per location, the continuous flow is discretized in the classic way: a
first-interval enclosure Omega0 covering [0, step] and a one-step input set
V, so that Omega_k = Phi^k Omega0 (+) Phi^(k-1) V (+) ... (+) V with
Phi = e^(A step). The drift part of V is the exact integral
(int_0^step e^(A s) ds) u_c, so autonomous models with pure drift propagate
without per-step bloat. All but Omega0 depends on the location alone
(``Discretization``): ``reach`` builds it once per location and call, and
every flowpipe through the location reuses it. Its (A, step) part
(``PhiTables``) is built once per distinct A and step in a call, and
shared by the locations and tail steps that have them. Nothing outlives
the call.

Boxes of such a recurrence come from one wrapping-free kernel,
``_box_chunks`` (Girard, Le Guernic & Maler, HSCC 2006; the box-template
case of the support-function scheme of Le Guernic & Girard). Instead of
re-reducing a growing zonotope every step it carries Phi^k applied to the
fixed generators of the first set plus a running sum of the row sums of
|Phi^j W|, W being the generators of V; their sum is the exact box radius.
It runs in chunks of _CHUNK steps on the shared powers P_j of Phi, and
sums a chunk's centers from its differences c_j - c_(j-1), which is the
recurrence c_(k+1) = Phi c_k + c_V bit for bit only at Phi = I. Propagation
stops at the first chunk whose invariant clamp empties; no order reduction
happens after it.

Omega0 has two forms. With one sub-step it is the chord zonotope: the hull
of the set and its one-step image, bloated for curvature and inputs. Stiff
dynamics take more sub-steps so the curvature term stays meaningful, and
Omega0 is the hull of the kernel's boxes of the exact sub-step sets, each
widened by the bloat of the sub-steps it bounds (the sub-step chords' box).

Segments are stored as arrays (``Segments``): time bounds, box bounds per
row, location and jump depth. Successor flowpipes spawned from a
guard-crossing window of width W widen each emitted segment with the
preceding ceil(W/step) segments, so a trajectory jumping anywhere in the
window stays covered by the segment whose time interval contains the query
time.

``reach`` explores jumps breadth-first. A task's start set is one box (the
initial set, a reset guard window clamped to the target's invariant, or a
merged hull) until ``flowpipe`` builds the zonotope ``discretize`` reads.
Only the initial set is tested against its invariant, once per call; the
others are clamps or hulls of clamps, and where a box pokes out of a
multi-variable invariant the flowpipe's own clamp cuts it. The successor
clamp, the merge test and the norms in ``discretize`` of one box run in
plain floats, on the one-variable rows' ``(column, c)`` (``Halfspaces.axis``)
and the bounds' ``tolist()``; tables and multi-variable rows go through
``clamp_boxes``.

Each level runs its tasks in groups that share a location. ``_merge_level``
orders a level by location, so a group is a run of the level's tasks, and
the order of the level is kept. ``flowpipe`` takes a group: each task keeps
its own first-interval enclosure, propagation chunks, tail step and
emission window, and the invariant clamp of each chunk index, the read-back
of the rows and the emission clamp run once over the rows of the whole
group. ``jump_successors`` reads the group's raw rows once per transition
and splits guard runs where the task that owns the rows changes, hulling
row slices. Rows are independent in all of these, so every bit is what one
flowpipe per task gives: the segments come level by level and task by task,
each task's rows in time order, and so do the successor tasks. When a group
raises, the level runs again one task at a time, so the error raised is
that of the level's earliest failing task, as a task-by-task loop raises it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import groupby, islice
from operator import attrgetter

import numpy as np

from .errors import HyraError, InitOutsideInvariant, NonFiniteFlowpipe, StepTooLarge
from .expressions import format_number, format_table
from .ir import Condition, ModelBundle, validate
from .sets import (
    Box,
    Zonotope,
    box_hull,
    center_radius,
    clamp_boxes,
    exp_with_integral,
    hull_zonotope,
    intersect_condition,
    linear_map,
    minkowski_sum,
    reduce_order,
    translate,
)

_MAX_SUBSTEPS = 1 << 16
_CONTAIN_SLACK = 1e-9
_CHUNK = 64  # propagation steps per batch of Phi powers


class Verdict(str, Enum):
    SAFE_PROVED = "SafeProved"
    POSSIBLY_UNSAFE = "PossiblyUnsafe"


class Termination(str, Enum):
    JUMP_BOUND_HIT = "JumpBoundHit"
    FIXPOINT_REACHED = "FixpointReached"


@dataclass(frozen=True, eq=False)
class FlowpipeSegment:
    """One row of a ``Segments`` table: a time interval and a box."""

    time_lo: float
    time_hi: float
    lo: np.ndarray
    hi: np.ndarray
    location: str
    jump_depth: int

    def box(self) -> Box:
        return Box(self.lo, self.hi)


@dataclass(eq=False)
class Segments:
    """Flowpipe segments as a table: one row per segment.

    ``time_lo``/``time_hi`` are (K,), ``lo``/``hi`` are (K, n) box bounds,
    ``location`` (str objects) and ``depth`` (int) are (K,). Indexing and
    iteration yield ``FlowpipeSegment`` rows, built on first use.
    """

    time_lo: np.ndarray
    time_hi: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    location: np.ndarray
    depth: np.ndarray

    @classmethod
    def from_bounds(cls, time_lo, time_hi, lo, hi, location: str, depth: int) -> "Segments":
        """Rows of one flowpipe from finite box bounds, read back from their center and radius.

        Each box is stored as center -/+ radius, the ``center_radius`` of its
        bounds, which is what a box turned into a zonotope and hulled back
        gives. A box whose bounds read back out of the floating-point range
        (which takes a bound at or next to the largest float) raises
        ``NonFiniteFlowpipe``.
        """
        center, radius = center_radius(lo, hi)
        with np.errstate(over="ignore"):
            lo, hi = center - radius, center + radius
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            finite = np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1)
            raise NonFiniteFlowpipe(
                f"flowpipe of location {location!r} left the floating-point range before "
                f"t={float(time_hi[np.argmin(finite)]):g}: a box does not read back from its center and radius"
            )
        count = lo.shape[0]
        return cls(time_lo, time_hi, lo, hi, np.full(count, location, dtype=object), np.full(count, depth))

    @classmethod
    def concat(cls, parts: list) -> "Segments":
        return cls(*(np.concatenate([getattr(p, f) for p in parts]) for f in
                     ("time_lo", "time_hi", "lo", "hi", "location", "depth")))

    @cached_property
    def rows(self) -> list:
        return list(map(FlowpipeSegment, self.time_lo.tolist(), self.time_hi.tolist(),
                        self.lo, self.hi, self.location.tolist(), self.depth.tolist()))

    def __len__(self) -> int:
        return self.time_lo.shape[0]

    def __getitem__(self, index: int) -> FlowpipeSegment:
        return self.rows[index]

    def __iter__(self):
        return iter(self.rows)


@dataclass
class ReachStats:
    segments: int = 0
    flowpipes: int = 0
    discarded: int = 0
    max_depth: int = 0
    wall_time: float = 0.0
    covered_time: float = 0.0
    termination: Termination | None = None  # None: neither the jump bound nor the fixpoint check cut it


@dataclass
class ReachResult:
    segments: Segments
    verdict: Verdict
    stats: ReachStats
    first_violation: int | None = None  # index into segments
    margin: float | None = None  # see ``safety_margin``; None without a forbidden set or segments
    margin_segment: int | None = None  # index into segments of the box that attains the margin


# ---------------------------------------------------------------------------
# Discretization


def _input_radius(delta: float, mu0: float, tau: float) -> float:
    """(e^(tau delta) - 1) / delta * mu0, the input bloat over tau; inf past the float range."""
    if mu0 == 0.0:
        return 0.0
    if delta == 0.0:
        return tau * mu0
    try:
        return math.expm1(tau * delta) / delta * mu0
    except OverflowError:
        return math.inf


def _powers(phi):
    """P_j = Phi^j (j <= _CHUNK) and the differences P_(j+1) - P_j (j < _CHUNK)."""
    n = phi.shape[0]
    powers = np.empty((_CHUNK + 1, n, n))
    powers[0] = np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(_CHUNK):
            powers[j + 1] = phi @ powers[j]
        return powers, powers[1:] - powers[:-1]


def _kernel(powers, v_set: Zonotope):
    """``_box_chunks``' tables for Z_(k+1) = Phi Z_k (+) V: the ``_powers`` of Phi,
    P_j c_V (j < _CHUNK) and V's generators W."""
    powers, diffs = powers
    with np.errstate(over="ignore", invalid="ignore"):
        return powers, diffs, powers[:-1] @ v_set.center, v_set.generators


class PhiTables:
    """What a discretization reads of (A, step) alone: ||A||, the sub-steps and tau,
    Phi, Phi1 = int_0^step e^(A s) ds and their sub-step forms, the curvature
    factor, and the ``_powers`` of Phi and Phi_tau, built on first use."""

    def __init__(self, a, step: float):
        self.delta = delta = float(np.linalg.norm(a, np.inf))
        substeps = 1
        while substeps < _MAX_SUBSTEPS and (step / substeps) * delta > 0.5:
            substeps *= 2
        self.substeps = substeps
        self.tau = tau = step / substeps
        if tau * delta > 0.5:
            raise StepTooLarge(
                f"step {format_number(step)} with ||A|| = {delta:g} cannot be discretized; reduce the step"
            )
        self.phi, self.phi1 = phi, phi1 = exp_with_integral(a, step)
        self.phi_tau, self.phi1_tau = (phi, phi1) if substeps == 1 else exp_with_integral(a, tau)
        self.curvature = 2.0 * (math.expm1(tau * delta) - tau * delta)  # chord factor, doubled

    @cached_property
    def powers(self):
        return _powers(self.phi)

    @cached_property
    def substep_powers(self):
        return _powers(self.phi_tau)


def _tables(discretized: dict, a, step: float) -> PhiTables:
    """The ``PhiTables`` of (A, step), kept in ``discretized`` under (step, A's bytes); built when missing."""
    key = (step, a.tobytes())
    tables = discretized.get(key)
    if tables is None:
        tables = discretized[key] = PhiTables(a, step)
    return tables


class Discretization:
    """A location's discrete-time data for one step: all that ``discretize`` and
    ``flowpipe``'s propagation need besides the set (see the module docstring). ``tables``,
    the ``PhiTables`` of (dyn.a, step), holds the (A, step) part; the drift
    part (u_c, mu0, beta, V) is built here. ``kernel``, the ``_box_chunks``
    tables of (Phi, V), is built on first use."""

    def __init__(self, dyn, input_box: Box | None, step: float, tables: PhiTables):
        self.dyn, self.input_box, self.step, self.tables = dyn, input_box, step, tables
        n = dyn.a.shape[0]
        u_c, mu0 = dyn.c.copy(), 0.0  # the constant drift B u_center + c, the input radius bound
        if dyn.m and input_box is not None:
            u_c, mu0 = dyn.b @ input_box.center + dyn.c, float(np.max(np.abs(dyn.b) @ input_box.radius))
        self.u_c, self.mu0 = u_c, mu0
        delta, self.substeps, self.phi, self.curvature = tables.delta, tables.substeps, tables.phi, tables.curvature
        self.beta, self.beta_tau = beta, beta_tau = _input_radius(delta, mu0, step), _input_radius(delta, mu0, tables.tau)
        if not (math.isfinite(beta) and math.isfinite(beta_tau)):
            raise NonFiniteFlowpipe(
                f"the input bound over a step of {format_number(step)} left the floating-point "
                "range; the input set or the dynamics are too large"
            )
        self.drift_curv = tables.curvature / delta * float(np.max(np.abs(u_c))) if delta > 0.0 else 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            self.drift_tau = tables.phi1_tau @ u_c
            self.v_set = Zonotope._trusted(tables.phi1 @ u_c, np.diag(np.full(n, beta))[:, np.full(n, beta) > 0])
        # V's generators hold the finite beta; its center is checked here, once
        self.v_finite = bool(np.isfinite(self.v_set.center).all())
        self.substep_kernel = None if self.substeps == 1 else _kernel(tables.substep_powers, Zonotope._trusted(
            self.drift_tau, np.diag(np.full(n, beta_tau))[:, np.full(n, beta_tau) > 0]))

    @cached_property
    def kernel(self):
        return _kernel(self.tables.powers, self.v_set)


def discretize(disc: Discretization, x0: Zonotope):
    """First-interval enclosure of the flow from x0 over [0, disc.step].

    Returns (omega0, alpha): omega0 covers the trajectories from x0 over
    [0, step], alpha is the curvature bloat radius used (the forbidden-equality
    slack). One sub-step gives the chord zonotope, more the box hull of the
    sub-step boxes (see the module docstring). The sanity abort compares the
    first sub-step's bloat against the initial-set radius.
    """
    n = x0.dim
    curvature, drift_curv, beta_tau = disc.curvature, disc.drift_curv, disc.beta_tau
    # The sets below are built without re-checks: an overflow or an invalid
    # value ends the computation at once, and the infinities that the
    # Python-float bloat radii can reach are caught after it.
    try:
        with np.errstate(over="raise", invalid="raise"):
            x0_box = box_hull(x0)
            radius0, sup = x0_box.max_radius(), x0_box.sup_norm()
            bloat = curvature * sup + drift_curv + beta_tau
            # sanity abort: bloat dwarfing the set makes the flowpipe meaningless;
            # degenerate (point-like) sets compare against 1% of their magnitude
            floor = max(radius0, 0.01 * max(1.0, sup))
            if bloat > 10.0 * floor:
                raise StepTooLarge(
                    f"bloating radius {bloat:g} exceeds 10x the initial-set radius "
                    f"{radius0:g}; reduce the step"
                )
            if disc.substeps == 1:
                nxt = translate(linear_map(disc.phi, x0), disc.drift_tau)
                if beta_tau > 0.0:
                    nxt = minkowski_sum(nxt, Zonotope._trusted(np.zeros(n), np.diag(np.full(n, beta_tau))))
                omega = hull_zonotope(x0, nxt)
                if bloat > 0.0:
                    omega = minkowski_sum(omega, Zonotope._trusted(np.zeros(n), np.diag(np.full(n, bloat))))
                omega = reduce_order(omega)
            else:
                # box(conv(X_j u X_(j+1)) (+) B(b_j)) = hull(box X_j, box X_(j+1)) (+) B(b_j) with
                # b_j = alpha_j + beta_tau: each exact box(X_j) widens by the larger b of its two
                lo, hi = (np.concatenate(side) for side in zip(
                    *(chunk[:2] for chunk in _box_chunks(disc.substep_kernel, x0, disc.substeps + 1))))
                bloats = curvature * np.maximum(np.abs(lo[:-1]), np.abs(hi[:-1])).max(axis=1) + drift_curv + beta_tau
                widen = np.maximum(np.append(bloats, bloats[-1]), np.insert(bloats, 0, bloats[0]))[:, None]
                lo, hi = (lo - widen).min(axis=0), (hi + widen).max(axis=0)
                center, radius = center_radius(lo, hi)
                omega = Zonotope._trusted(center, np.diag(radius))
    except FloatingPointError:
        omega = None
    if (omega is None or not disc.v_finite or not np.isfinite(omega.center).all()
            or not np.isfinite(omega.generators).all()):
        raise NonFiniteFlowpipe(
            f"the first-interval enclosure over a step of {format_number(disc.step)} left the "
            "floating-point range; the initial set or the dynamics are too large"
        )
    return omega, bloat


# ---------------------------------------------------------------------------
# Per-location flowpipe


def _box_inside_condition(box: Box, cond: Condition) -> bool:
    """Whether max over the box of c . x <= d + ``_CONTAIN_SLACK`` holds on every halfspace row; true without rows."""
    rows = cond.halfspaces
    c = rows.coeffs
    with np.errstate(over="ignore", invalid="ignore"):  # sums past the float range read inf or nan: outside
        return not c.size or bool((np.where(c >= 0, c * box.hi, c * box.lo).sum(axis=1) <= rows.bounds + _CONTAIN_SLACK).all())


@dataclass
class Task:
    """A flowpipe to run: its location, start box, entry time and the width of its entry window."""

    location: str
    box: Box  # the start set
    entry_time: float
    window: float

    @property
    def end_time(self) -> float:
        return self.entry_time + self.window


@dataclass
class FlowpipeResult:
    """Emitted (skew-widened) segments plus the raw per-interval boxes of a group of tasks.

    ``segments`` are what the flowpipes report: each box hulled with the
    preceding ceil(window/step) raw boxes of its task, so a trajectory that
    entered the location anywhere in its jump window stays covered by the
    segment whose time label contains the query time. ``raw`` keeps the
    unslid boxes: guard detection works on those (states are elapsed-faithful
    there), with the entry skew accounted for in the successor's window
    width instead. Both tables hold the rows of the group's ``tasks`` one
    task after the other; ``owner`` is (K,), the position in ``tasks`` of
    the task of each raw row. ``alpha`` is the largest curvature bloat
    radius of the group.
    """

    segments: Segments
    raw: Segments
    tasks: list
    owner: np.ndarray
    alpha: float


def _require_finite(location, time: float, *arrays) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise NonFiniteFlowpipe(
                f"flowpipe of location {location.name!r} left the floating-point range "
                f"before t={time:g}; the dynamics diverge over the horizon"
            )


def _box_chunks(kernel, z0: Zonotope, steps: int):
    """Box bounds of Z_k = Phi^k Z_0 (+) Phi^(k-1) V (+) ... (+) V for k < steps.

    Yields (lo, hi, after) for each _CHUNK values of k; ``after`` is (center,
    Phi^k G0, input radius) of the Z_k that follows the chunk. A chunk's
    centers are the cumulative sum of c_0 and d_j = (P_j - P_(j-1)) c_0 +
    P_(j-1) c_V; at Phi = I each d_j is c_V exactly."""
    powers, diffs, drift, inputs = kernel
    center, gens = z0.center, z0.generators  # Phi^k G0, and inputs holds Phi^k W
    input_radius = np.zeros(z0.dim)  # row sums of |Phi^j W| over j < k
    for k in range(0, steps, _CHUNK):
        size = min(_CHUNK, steps - k)
        centers = np.cumsum(np.concatenate([center[None], diffs[:size] @ center + drift[:size]]), axis=0)
        center, centers = centers[size], centers[:size]
        radius = np.abs(powers[:size] @ gens).sum(axis=2)
        if inputs.shape[1]:
            running = input_radius + np.cumsum(np.abs(powers[:size] @ inputs).sum(axis=2), axis=0)
            radius += np.concatenate([input_radius[None], running[:-1]])
            input_radius = running[-1]
            inputs = powers[size] @ inputs
        gens = powers[size] @ gens
        yield centers - radius, centers + radius, (center, gens, input_radius)


def _sliding_hull(lo, hi, m: int, count: int):
    """Row k hulls rows max(0, k-m) .. min(k, K-1) of (K, n) bounds, k < count.

    Spans double instead of sliding one row at a time: once row k hulls the
    w rows ending at k, hulling it with row k-w gives the 2w rows ending at
    k. The window of m+1 rows is then the union of two overlapping spans of
    the largest such w. Min and max are exact and every step passes the
    later rows first, as a row-by-row scan does, so even the signs of zeros
    come out the same.
    """
    pad = max(count - lo.shape[0], 0)
    out_lo = np.vstack([lo[:count], np.full((pad, lo.shape[1]), np.inf)])
    out_hi = np.vstack([hi[:count], np.full((pad, hi.shape[1]), -np.inf)])
    rows = min(m, count - 1) + 1
    width = 1
    while 2 * width <= rows:
        out_lo[width:] = np.minimum(out_lo[width:], out_lo[:-width])
        out_hi[width:] = np.maximum(out_hi[width:], out_hi[:-width])
        width *= 2
    shift = rows - width
    if shift:
        out_lo[shift:] = np.minimum(out_lo[shift:], out_lo[:-shift])
        out_hi[shift:] = np.maximum(out_hi[shift:], out_hi[:-shift])
    return out_lo, out_hi


def _join(parts: list, width: int = 2) -> tuple:
    """The first ``width`` columns of tuples of arrays, each joined along its first axis;
    a lone tuple gives its own."""
    if len(parts) == 1:
        return parts[0][:width]
    return tuple(np.concatenate(column) for column in islice(zip(*parts), width))


def flowpipe(location, tasks: list, input_box: Box | None, step: float, horizon: float,
             jump_depth: int = 0, *, discretized: dict) -> FlowpipeResult:
    """Segments covering [task.entry_time, horizon] inside one location, for each ``Task``.

    Every task starts in ``location``; its flowpipe stops early when a
    segment's intersection with the invariant is empty. ``discretize`` reads
    the zonotope of the finite box ``task.box``, which is not tested against
    the invariant here (``reach`` tests the model's initial set).
    ``task.window`` is the width of the guard-crossing window that produced
    it (zero for the model's initial set). Each task has its own
    first-interval enclosure, propagation chunks, tail step and emission
    windows; the invariant clamp of each chunk index, the read-back of the
    rows and the emission clamp run once over the rows of all tasks. Rows
    are independent in all three, so every bit is the one a call per task
    gives. ``discretized`` maps location names to their ``Discretization``
    for ``step`` and (step, A's bytes) to ``PhiTables``; a missing entry is
    added.
    """
    dyn = location.dynamics
    rows = location.invariant.halfspaces
    blocks = [[] for _ in tasks]  # per task, its raw (lo, hi) row blocks in time order
    lasts = []  # per task, the set covering its last interval while it lives
    steps, leftovers = [], []
    live = []  # (task position, chunk generator) of the tasks still propagating
    alpha_max = 0.0
    least_leftover = 1e-9 * max(1.0, step)
    for i, task in enumerate(tasks):
        remaining = horizon - task.entry_time
        full_steps = int(math.floor(remaining / step + 1e-9))
        leftover = remaining - full_steps * step
        steps.append(full_steps)
        leftovers.append(0.0 if leftover < least_leftover else leftover)
        if remaining <= 1e-12 or full_steps == 0:
            lasts.append(task.box.to_zonotope() if remaining > 1e-12 else None)
            continue
        lasts.append(None)
        disc = discretized.get(location.name)
        if disc is None:
            disc = discretized[location.name] = Discretization(dyn, input_box, step, _tables(discretized, dyn.a, step))
        omega, alpha = discretize(disc, task.box.to_zonotope())
        alpha_max = max(alpha_max, alpha)
        live.append((i, _box_chunks(disc.kernel, omega, full_steps)))

    # Invariant-clamped boxes of Omega_0 .. Omega_(steps-1), wrapping-free: chunk
    # index by chunk index, one clamp over the chunks of every task still alive.
    chunk_end = _CHUNK  # the step after the current chunk index
    with np.errstate(over="ignore", invalid="ignore"):
        while live:
            chunks = [next(gen) for _, gen in live]
            lo, hi = _join(chunks)
            # finite centers and radii can still sum out of range; the clamp
            # would read those infinities as an empty box and cut the pipe
            if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
                for (i, _), (chunk_lo, chunk_hi, _) in zip(live, chunks):
                    time_at = tasks[i].entry_time + min(chunk_end, steps[i]) * step
                    _require_finite(location, time_at, chunk_lo, chunk_hi)
            lo, hi, ok = clamp_boxes(lo, hi, rows)
            still, stop = [], 0
            for (i, gen), (chunk_lo, _, after) in zip(live, chunks):
                start, stop = stop, stop + chunk_lo.shape[0]
                cut = stop if ok[start:stop].all() else start + int(np.argmin(ok[start:stop]))
                blocks[i].append((lo[start:cut], hi[start:cut]))
                if cut < stop:
                    continue  # the clamp emptied: the pipe ends here, no set follows
                if chunk_end < steps[i]:
                    still.append((i, gen))
                    continue
                center, gens, input_radius = after
                _require_finite(location, tasks[i].entry_time + steps[i] * step, center, gens, input_radius)
                lasts[i] = Zonotope(center, np.hstack([gens, np.diag(input_radius)[:, input_radius > 0]]))
            live = still
            chunk_end += _CHUNK

    # Emitted segment k hulls raw boxes over elapsed [k-m, k]: a trajectory
    # that entered up to `window` later than the pipe start is elapsed-wise
    # behind by up to m segments. For the same reason the emission runs up
    # to m segments past the raw pipe's death. The raw rows are a prefix of
    # the emitted ones, and so are their time columns.
    raw_parts, emit_parts = [], []  # (t_lo, t_hi, lo, hi) of each task with rows
    raw_counts, windowed = [], []
    for i, task in enumerate(tasks):
        last, leftover = lasts[i], leftovers[i]
        if last is not None and (leftover > 0.0 or steps[i] == 0):
            # partial tail segment from the set covering the last interval
            omega_tail, alpha = discretize(
                Discretization(dyn, input_box, leftover, _tables(discretized, dyn.a, leftover)), last)
            alpha_max = max(alpha_max, alpha)
            with np.errstate(over="ignore", invalid="ignore"):
                tail = box_hull(omega_tail)
            _require_finite(location, horizon, tail.lo, tail.hi)
            tail_lo, tail_hi, ok = clamp_boxes(tail.lo[None, :], tail.hi[None, :], rows)
            if ok[0]:
                blocks[i].append((tail_lo, tail_hi))
        lo, hi = _join(blocks[i]) if blocks[i] else (np.empty((0, dyn.a.shape[0])),) * 2
        raw_count = lo.shape[0]
        raw_counts.append(raw_count)
        if raw_count == 0:
            continue
        m = math.ceil(task.window / step - 1e-9) if task.window > 0 else 0
        windowed.append(m > 0)
        emit_count = min(raw_count + m, steps[i] + (leftover > 0.0)) if m else raw_count
        k = np.arange(emit_count)
        t_lo, t_hi = task.entry_time + k * step, np.minimum(task.entry_time + (k + 1) * step, horizon)
        t_hi[k == steps[i]] = horizon
        raw_parts.append((t_lo[:raw_count], t_hi[:raw_count], lo, hi))
        # a task without a window emits its raw rows, which are clamped already
        emit_parts.append((t_lo, t_hi, *_sliding_hull(lo, hi, m, emit_count)) if m else raw_parts[-1])
    owner = np.repeat(np.arange(len(tasks)), raw_counts)
    if not raw_parts:  # no task has rows: one empty part
        raw_parts.append((np.empty(0), np.empty(0), *(np.empty((0, dyn.a.shape[0])),) * 2))
    raw = Segments.from_bounds(*_join(raw_parts, 4), location.name, jump_depth)
    if not any(windowed):
        return FlowpipeResult(raw, raw, tasks, owner, alpha_max)
    t_lo, t_hi, merged_lo, merged_hi = _join(emit_parts, 4)
    clamped_lo, clamped_hi, ok = clamp_boxes(merged_lo, merged_hi, rows)
    if not all(windowed):  # keep raw rows as they are: a second pass over coupled rows can tighten them
        ok &= np.repeat(windowed, [part[0].shape[0] for part in emit_parts])
    merged_lo = np.where(ok[:, None], clamped_lo, merged_lo)
    merged_hi = np.where(ok[:, None], clamped_hi, merged_hi)
    segments = Segments.from_bounds(t_lo, t_hi, merged_lo, merged_hi, location.name, jump_depth)
    return FlowpipeResult(segments, raw, tasks, owner, alpha_max)


# ---------------------------------------------------------------------------
# Discrete successors


def jump_successors(pipe: FlowpipeResult, transition) -> list:
    """Aggregated successors of one transition over the raw rows of a flowpipe group.

    Consecutive raw rows of one task (one ``owner``) whose boxes meet the
    guard form one crossing window; the guard-clamped boxes hull into a
    single box, whose image under the reset ``R x + r`` is the box of center
    ``R c + r`` and radius ``|R| rad``, reported with the window's start
    time and width. A run (rows a .. b) reduces the row slices ``lo[a:b + 1]``
    and ``hi[a:b + 1]`` and reads its times at rows a and b, as Python floats.
    Returns one list per task of the group, each of (box_pre_invariant,
    entry_time, window_width), each box with finite bounds. A reset that
    maps a window out of the floating-point range raises ``NonFiniteFlowpipe``.
    """
    segments = pipe.raw
    lo, hi, hit = clamp_boxes(segments.lo, segments.hi, transition.guard.halfspaces)
    out: list = [[] for _ in pipe.tasks]
    hits = np.flatnonzero(hit)
    if hits.size == 0:
        return out
    owner = pipe.owner[hits]
    # hit row less its rank, plus owner: it never falls, and rises exactly where a run ends
    key = hits - np.arange(hits.size) + owner
    rows, owners, ends = hits.tolist(), owner.tolist(), np.flatnonzero(key[1:] != key[:-1]).tolist()
    reset = transition.reset
    r_matrix, r_offset, r_abs = reset.r_matrix, reset.r_offset, np.abs(reset.r_matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        for first, last in zip([0, *(end + 1 for end in ends)], [*ends, len(rows) - 1]):
            a, b = rows[first], rows[last]  # the run is rows a .. b, read as slices
            entry_time = segments.time_lo.item(a)
            window_width = segments.time_hi.item(b) - entry_time
            # the window hulls clamped rows of a finite table, so its bounds are finite
            window_center, window_radius = center_radius(lo[a:b + 1].min(axis=0), hi[a:b + 1].max(axis=0))
            center = r_matrix @ window_center + r_offset
            radius = r_abs @ window_radius
            succ_lo, succ_hi = center - radius, center + radius
            # the clamp that follows would read infinities as an empty box
            if not (np.isfinite(succ_lo).all() and np.isfinite(succ_hi).all()):
                raise NonFiniteFlowpipe(
                    f"successor of the jump {transition.source!r} -> {transition.target!r} at t={entry_time:g} "
                    "left the floating-point range; the reset maps the guard set out of range"
                )
            out[owners[first]].append((Box._trusted(succ_lo, succ_hi), entry_time, window_width))
    return out


# ---------------------------------------------------------------------------
# Safety and fixpoint machinery


def check_safety(segments, forbidden: Condition | None, eq_slack: float = 1e-9):
    """SafeProved iff no segment box meets the forbidden condition.

    Equality constraints are widened to a slab of half-width ``eq_slack``
    (exact-equality intersection of an over-approximation is ill-posed):
    the bounds of both rows of an equality grow by it. Returns (verdict,
    index of the earliest offending segment or None); among offenders with
    equal ``time_lo`` the lowest index wins.
    """
    if forbidden is None or len(segments) == 0:
        return Verdict.SAFE_PROVED, None
    rows = forbidden.halfspaces.widened(max(eq_slack, 1e-9))
    _, _, hit = clamp_boxes(segments.lo, segments.hi, rows)
    offenders = np.flatnonzero(hit)
    if offenders.size == 0:
        return Verdict.SAFE_PROVED, None
    return Verdict.POSSIBLY_UNSAFE, int(offenders[np.argmin(segments.time_lo[offenders])])


def safety_margin(segments, forbidden: Condition | None, eq_slack: float = 1e-9):
    """Signed distance from the segment boxes to the forbidden set, and the box that attains it.

    On the rows ``check_safety`` clamps (equalities widened by ``eq_slack``
    to a slab), a box's value is its largest row value (min over the box of
    c . x - d) / ||c||: where it is positive, that row separates the box
    from the set by at least that distance, and the clamp finds the box
    outside the set. The minimum over the box is summed as ``clamp_boxes``
    sums it. The margin is the smallest value over the boxes, the lowest
    index winning ties. A set with no rows (``true``) holds every box, so
    every value is -inf. Returns (margin, index), or (None, None) without a
    forbidden set or segments.
    """
    if forbidden is None or len(segments) == 0:
        return None, None
    rows = forbidden.halfspaces.widened(max(eq_slack, 1e-9))
    lo, hi = segments.lo, segments.hi
    values = np.full(len(segments), -np.inf)
    for coeffs, bound, single in zip(rows.coeffs, rows.bounds.tolist(), rows.axis):
        if single is not None:  # one coefficient c: the row is c x_i <= d
            i, c = single
            value = (c * (lo if c > 0 else hi)[:, i] - bound) / abs(c)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):  # a row without coefficients reads +-inf or nan
                value = (np.where(coeffs >= 0, coeffs * lo, coeffs * hi).sum(axis=1) - bound) / np.linalg.norm(coeffs)
        np.fmax(values, value, out=values)
    index = int(np.argmin(values))
    return float(values[index]), index


def _fixpoint_covered(task: Task, pool: list) -> bool:
    """Whether one earlier ``Task`` in ``pool`` covers ``task``: its entry window holds the
    task's and its box the task's box. A task that entered later has less horizon left."""
    box = task.box
    slack = _CONTAIN_SLACK * max(1.0, box.sup_norm())
    return any(other.entry_time <= task.entry_time and task.end_time <= other.end_time
               and np.all(other.box.lo - slack <= box.lo) and np.all(box.hi <= other.box.hi + slack)
               for other in pool)


# ---------------------------------------------------------------------------
# Top-level exploration


def _boxes_close(b1: Box, b2: Box) -> bool:
    """True when the hull of two boxes barely exceeds the larger box.

    Merging is only sound-AND-useful for near-coincident sets (e.g. the two
    orderings of near-simultaneous jumps); hulling sets in different phases
    destroys correlations and blows the flowpipe up. Decided per axis in floats,
    as numpy's minimum and maximum would: widths past the float range compare
    inf <= inf, and the merged hull still has a center and radius.
    """
    for lo1, hi1, lo2, hi2 in zip(b1.lo.tolist(), b1.hi.tolist(), b2.lo.tolist(), b2.hi.tolist()):
        lo, hi = lo1 if lo1 < lo2 else lo2, hi1 if hi1 > hi2 else hi2
        w1, w2 = hi1 - lo1, hi2 - lo2
        if not hi - lo <= 1.5 * (w1 if w1 > w2 else w2) + 1e-9 * max(abs(lo), abs(hi), 1.0):
            return False
    return True


def _merge_level(tasks: list, step: float) -> list:
    """Merge same-location tasks with overlapping windows and close sets.

    Interleavings of near-simultaneous jumps (two balls bouncing within the
    same window) otherwise multiply flowpipes exponentially with depth; the
    hull of close, overlapping windows is a sound aggregate.
    """
    tasks = sorted(tasks, key=lambda t: (t.location, t.entry_time, t.window))
    merged: list = []
    for task in tasks:
        absorbed = False
        for i, other in enumerate(merged):
            if other.location != task.location:
                continue
            if task.entry_time > other.end_time + 0.5 * step or other.entry_time > task.end_time + 0.5 * step:
                continue
            if not _boxes_close(other.box, task.box):
                continue
            entry = min(other.entry_time, task.entry_time)
            end = max(other.end_time, task.end_time)
            merged[i] = Task(task.location, other.box.hull(task.box), entry, end - entry)
            absorbed = True
            break
        if not absorbed:
            merged.append(task)
    return merged


def reach(bundle: ModelBundle) -> ReachResult:
    """Bounded-jump breadth-first flowpipe exploration with safety verdict.

    The verdict is the safety answer (SafeProved / PossiblyUnsafe); when the
    jump bound cut exploration or the fixpoint check discarded a task, that
    is recorded in stats.termination (the jump bound first). Each level's
    tasks run in groups that share a location (see the module docstring),
    after the initial set's ``InitOutsideInvariant`` test.
    """
    started = time.perf_counter()
    bundle = bundle.resolved
    automaton = bundle.automaton
    settings = bundle.settings
    defects = validate(automaton, settings.forbidden)
    if defects:
        raise HyraError("bundle does not validate: " + "; ".join(str(d) for d in defects))
    input_box = automaton.input_box()
    locations = {loc.name: loc for loc in automaton.locations}
    outgoing = automaton.outgoing
    initial = bundle.initial
    if not _box_inside_condition(initial.box, locations[initial.location].invariant):
        raise InitOutsideInvariant(f"initial set of location {initial.location!r} is not inside its invariant")

    stats = ReachStats()
    parts: list = []
    alpha_max = 0.0
    jump_bound_cut = False
    processed: dict = {name: [] for name in locations}  # the tasks that ran, per location
    discretized: dict = {}  # shared by the flowpipes of the call (see ``flowpipe``)

    def run(tasks: list):
        """The flowpipes of tasks that share a location and, when they hold rows, their
        successors per outgoing transition."""
        location = locations[tasks[0].location]
        pipe = flowpipe(location, tasks, input_box, settings.step, settings.horizon, depth,
                        discretized=discretized)
        successors = [jump_successors(pipe, t) for t in outgoing[location.name]] if len(pipe.raw) else []
        return pipe, successors

    level = [Task(initial.location, initial.box, 0.0, 0.0)]
    depth = 0
    while level and depth <= settings.max_jumps:
        ran: list = []
        for task in level:
            if settings.fixpoint_check and _fixpoint_covered(task, processed[task.location]):
                stats.discarded += 1
                continue
            processed[task.location].append(task)
            ran.append(task)
        try:
            # ``_merge_level`` orders a level by location, so its groups are runs of tasks
            results = [run(list(tasks)) for _, tasks in groupby(ran, key=attrgetter("location"))]
        except HyraError:
            # A group raises the error of one of its tasks, which need not be the
            # earliest task of the level that fails. One task at a time, in order,
            # the first error raised is that one.
            results = [run([task]) for task in ran]
        if ran:
            stats.flowpipes += len(ran)
            stats.max_depth = depth
        next_level: list = []
        for pipe, successors in results:
            alpha_max = max(alpha_max, pipe.alpha)
            parts.append(pipe.segments)
            for position, task in enumerate(pipe.tasks):
                for transition, per_task in zip(outgoing[task.location], successors):
                    if not per_task[position]:
                        continue
                    if depth >= settings.max_jumps:
                        jump_bound_cut = True
                        continue
                    for succ, t_entry, w in per_task[position]:
                        clamped = intersect_condition(succ, locations[transition.target].invariant)
                        if clamped is None:
                            continue
                        # late jumpers inherit the parent's entry skew
                        next_level.append(Task(transition.target, clamped, t_entry, w + task.window))
        level = _merge_level(next_level, settings.step)
        depth += 1

    segments = Segments.concat(parts)
    slack = max(1e-9, alpha_max)
    verdict, first_violation = check_safety(segments, settings.forbidden, slack)
    margin, margin_segment = safety_margin(segments, settings.forbidden, slack)
    stats.segments = len(segments)
    stats.covered_time = float(segments.time_hi.max()) if len(segments) else 0.0
    if jump_bound_cut:
        stats.termination = Termination.JUMP_BOUND_HIT
    elif stats.discarded:
        stats.termination = Termination.FIXPOINT_REACHED
    stats.wall_time = time.perf_counter() - started
    return ReachResult(segments, verdict, stats, first_violation, margin, margin_segment)


def segments_to_csv(result: ReachResult, state_vars) -> str:
    """One ``format_table`` line per segment: time span, location, jump depth, each variable's lo and hi."""
    segments = result.segments
    header = ["time_lo", "time_hi", "location", "jump_depth"]
    header += [f"{side}_{var}" for var in state_vars for side in ("lo", "hi")]
    bounds = np.empty((len(segments), 2 * len(state_vars)))
    bounds[:, 0::2] = segments.lo
    bounds[:, 1::2] = segments.hi
    depths = segments.depth.tolist()
    depth_text = {d: str(d) for d in set(depths)}  # a few distinct depths, one str() each
    return format_table(header, [np.column_stack((segments.time_lo, segments.time_hi)), segments.location.tolist(),
                                 [depth_text[d] for d in depths], bounds])
