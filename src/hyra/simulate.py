"""Hybrid trajectory simulation with event detection and Zeno diagnostics.

Fixed-step integration (forward Euler or Heun) inside a location; guard
crossings are located by bisection over the step, the reset is applied, and
integration re-anchors at the crossing time. One locator, ``_locate``,
serves guard crossings, guard switches and invariant exits: it first tries
the bisection cell that holds the closed-form root of a constraint's value
along the step, and halves the step only when that cell is not confirmed.
A run halts early with ``zeno=True`` once enough consecutive inter-event
gaps fall below the dwell threshold, recording a geometric estimate of the
accumulation time.

Dynamics are affine, so one Euler or Heun step is exactly x -> M x + e. Per
location, ``simulate`` reads M and e off ``step`` (stepping the zero vector
and the unit vectors), stacks M^1..M^K with their offsets for a chunk of
K = 128 steps, and computes the next K states with one product. One more
product evaluates every outgoing guard and the invariant on all of them.
These tables are built once per resolved automaton, step and integrator,
and every later run with the same three shares them (read-only). After two
fully plain chunks in a row, one call chains up to ``_CHAIN`` chunks, each
from the last state of the one before, until the next per-step step. Runs
record into one time array and one state array, sized from horizon / step
and doubled when full. The chunk's leading steps are recorded as they are.
The first step where a guard may cross, the invariant fails, the step is
shortened by the horizon, or a constraint value lies too close to its
threshold to be decided safely under rounding runs through the per-step
path: one ``step``, then ``detect_event`` on every outgoing transition and
the invariant check, both given that step's end state. A crossing between
two recorded samples is therefore never skipped: the sign test of a chunk
runs on exactly the states it records.

Transition guards fire on a crossing: a guard already satisfied when a
location is entered does not auto-fire (trivially-true "spontaneous"
transitions are therefore never taken by the simulator; the reachability
engine explores them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InitOutsideInvariant, MaxEventsExceeded
from .expressions import format_table
from .ir import AffineDynamics, Condition, ModelBundle, Transition
from .sets import Box, center_radius

_GUARD_SLACK = 1e-9
_EVENT_CHECK_SLACK = 1e-6
_CHUNK = 128  # steps per chunk; a power of two, since the powers of M are built by doubling
_CHAIN = 8  # most chunks one ``_Chunk.advance`` call chains through a long flight
# A chunk hands a step to the per-step path when a constraint value lies
# within this fraction of its magnitude of the threshold, so that the
# chunk's product and the per-step dot products cannot decide differently.
_ROUNDING = 1e-12
# A run halts on Zeno once ``_ZENO_COUNT`` inter-event gaps in a row fall below
# ``_ZENO_DWELL`` seconds; more than ``_MAX_EVENTS`` events without that halt is
# an engine error.
_ZENO_DWELL = 1e-4
_ZENO_COUNT = 10
_MAX_EVENTS = 10_000


class Integrator(str, Enum):
    EULER = "euler"
    HEUN = "heun"  # the second-order one-step scheme


@dataclass(frozen=True)
class SimOptions:
    step: float = 1e-3
    horizon: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0.0):
            raise ValueError(f"need a finite step > 0, not {self.step!r}")
        if self.horizon is not None and not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError(f"need a finite horizon > 0, not {self.horizon!r}")


@dataclass(frozen=True)
class SimEvent:
    time: float
    label: str | None
    source: str
    target: str
    pre_state: np.ndarray
    post_state: np.ndarray


@dataclass
class Trajectory:
    times: np.ndarray
    locations: list
    states: np.ndarray
    events: list
    zeno: bool = False
    zeno_time: float | None = None
    truncated: str | None = None

    @property
    def sample_count(self) -> int:
        return len(self.times)


def _drive(dyn: AffineDynamics, u) -> np.ndarray:
    """The constant part B u + c of the flow."""
    return dyn.c if dyn.m == 0 else dyn.b @ np.asarray(u, dtype=float) + dyn.c


def step(dyn: AffineDynamics, x, u, h: float, kind: Integrator) -> np.ndarray:
    """One integration step of x' = A x + B u + c.

    Euler: x + h f(x). Heun: x + (h/2)(f(x) + f(x + h f(x))); exact for
    constant-acceleration motion.
    """
    return _substep(dyn.a, _drive(dyn, u), np.asarray(x, dtype=float), h, kind)


def _substep(a_mat, drive, x, tau: float, kind: Integrator, f0=None) -> np.ndarray:
    """x advanced by tau; ``f0``, when given, is the slope ``a_mat @ x + drive`` at x."""
    if f0 is None:
        f0 = a_mat @ x + drive
    if kind == Integrator.EULER:
        return x + tau * f0
    f1 = a_mat @ (x + tau * f0) + drive
    return x + 0.5 * tau * (f0 + f1)


def _first_equality(guard: Condition):
    """The guard's first ``==`` constraint, its crossing surface, or None."""
    return next((c for c in guard.constraints if c.relation == "=="), None)


def _guard_holds(guard: Condition, x, eq_slack: float) -> bool:
    for con in guard.constraints:
        slack = eq_slack if con.relation == "==" else _GUARD_SLACK
        if not con.satisfied(x, slack):
            return False
    return True


def _first_root(g0: float, d1: float, d2: float, h: float) -> float | None:
    """First root in [0, h] of g(tau) = g0 + d1 tau + (d2 / 2) tau^2, or None.

    For a guard row c.x - b, g0 = c.x - b, d1 = c.f(x) and d2 = c.A f(x)
    give the row's value along a Heun sub-step ``x + tau f + (tau^2/2) A f``
    (d2 = 0 for Euler's ``x + tau f``). The quadratic's roots are taken in
    the cancellation-free form q = -(d1 + sign(d1) sqrt(disc)) / 2, roots
    q / (d2/2) and g0 / q. A constant row has no root.
    """
    half = 0.5 * d2
    if half == 0.0:
        if d1 == 0.0:
            return None
        roots = (-g0 / d1,)
    else:
        disc = d1 * d1 - 4.0 * half * g0
        if not disc >= 0.0:
            return None
        q = -0.5 * (d1 + math.copysign(math.sqrt(disc), d1))
        roots = (q / half, g0 / q) if q != 0.0 else (0.0,)  # q == 0: a double root at 0
    inside = [r for r in roots if 0.0 <= r <= h]
    return min(inside) if inside else None


def _locate(a_mat, drive, x0, x1, kind: Integrator, h: float, tol: float, rows, inside) -> tuple:
    """Bracket [a, b] of width <= tol where ``inside`` goes from true to false.

    ``x0`` and ``x1`` are the states at the ends of the step [0, h].
    ``rows`` are (coeffs, level) pairs: the values of c.x at which
    ``inside`` may change. Each row's first root r in [0, h] is tried,
    earliest first: the halving of [0, h] runs with ``mid < r`` deciding
    each midpoint, so it reaches the cell of the bisection's own grid that
    holds r, and the cell is kept when ``inside`` holds at its lower edge
    and fails at its upper one. Where the predicate changes once over the
    step, the bisection would have reached that same cell. Without a
    confirmed root (tangency, rounding, a predicate that changes more than
    once) ``_bisect`` halves the step on ``inside`` itself. Returns
    (a, x_a, b, x_b).
    """
    f0 = a_mat @ x0 + drive
    curve = a_mat @ f0 if kind == Integrator.HEUN else np.zeros_like(f0)
    roots = (_first_root(float(c @ x0) - level, float(c @ f0), float(c @ curve), h) for c, level in rows)
    for r in sorted(r for r in roots if r is not None):
        a, b = 0.0, h
        while b - a > tol:
            mid = 0.5 * (a + b)
            if mid < r:
                a = mid
            else:
                b = mid
        x_a = x0 if a == 0.0 else _substep(a_mat, drive, x0, a, kind, f0)
        x_b = x1 if b == h else _substep(a_mat, drive, x0, b, kind, f0)
        if inside(x_a) and not inside(x_b):
            return a, x_a, b, x_b
    return _bisect(a_mat, drive, x0, f0, x1, kind, h, tol, inside)


def _bisect(a_mat, drive, x0, f0, x1, kind: Integrator, h: float, tol: float, inside) -> tuple:
    """``_locate``'s fallback: halve [0, h] on ``inside`` at each midpoint's sub-step state.

    Where ``inside`` switches more than once within the step, this may
    settle on a later switch than the first.
    """
    a, b, x_a, x_b = 0.0, h, x0, x1
    while b - a > tol:
        mid = 0.5 * (a + b)
        x_mid = _substep(a_mat, drive, x0, mid, kind, f0)
        if inside(x_mid):
            a, x_a = mid, x_mid
        else:
            b, x_b = mid, x_mid
    return a, x_a, b, x_b


def _levels(cond: Condition, slack: float) -> list:
    """(coeffs, level) rows at which ``cond.satisfied(x, slack)`` may switch: (c, d + slack)."""
    rows = cond.halfspaces
    return list(zip(rows.coeffs, rows.bounds + slack))


def detect_event(dyn: AffineDynamics, transition: Transition, x_before, t: float, h: float,
                 kind: Integrator, u, x_after) -> tuple | None:
    """Earliest guard crossing inside the step [t, t+h], if any.

    ``x_after`` is the state that ``step`` reaches at the end of the step.
    Equality constraints are crossing surfaces: the first one is located to
    time tolerance 1e-9 * max(1, t), then the whole conjunction is checked at
    the crossing. Pure-inequality guards are located at the earliest point
    where the conjunction switches from false to true. Both are located by
    ``_locate``. Returns (tau, crossing_state) with tau relative to the step
    start, or None when the guard is not crossed. A guard already satisfied
    at the step start does not fire.
    """
    guard = transition.guard
    if guard.is_true:
        return None
    x0 = np.asarray(x_before, dtype=float)
    drive = _drive(dyn, u)
    tol = 1e-9 * max(1.0, t)
    con = _first_equality(guard)

    if con is not None:
        g0 = float(con.coeffs @ x0) - con.bound
        g1 = float(con.coeffs @ x_after) - con.bound
        if g0 * g1 > 0.0:
            return None
        if g0 == 0.0 and g1 == 0.0:
            return None  # sliding along the surface, not a crossing

        def before(xm) -> bool:
            """Strictly on the side of the surface where the step starts."""
            gm = float(con.coeffs @ xm) - con.bound
            return (gm > 0.0) == (g0 > 0.0) and gm != 0.0

        a, xa, _, _ = _locate(dyn.a, drive, x0, x_after, kind, h, tol, [(con.coeffs, con.bound)], before)
        # report the bracket edge on the pre-crossing side: the state there
        # still satisfies the source invariant (e.g. x >= 0 for the ball)
        if _guard_holds(guard, xa, _EVENT_CHECK_SLACK):
            return a, xa
        return None

    # inequality-only guard: the false->true switch
    if _guard_holds(guard, x0, _GUARD_SLACK) or not _guard_holds(guard, x_after, _GUARD_SLACK):
        return None
    _, _, b, xb = _locate(dyn.a, drive, x0, x_after, kind, h, tol, _levels(guard, _GUARD_SLACK),
                          lambda x: not _guard_holds(guard, x, _GUARD_SLACK))
    return b, xb


class _Chunk:
    """One location's chunked stepper for a fixed step length h.

    Every constraint the per-step path would test is a column c, d with a
    margin slack - (c.x - d) that is >= 0 exactly when the test passes: the
    halfspace rows of the invariant and of inequality-only guards with slack
    ``_GUARD_SLACK``, and the first equality c.x == b of each crossing guard
    as the row (-c, -b) with slack 0, whose margin is its plain sign c.x - b.
    The invariant's columns come first, then the crossings', then each
    switching guard's. The arrays are read-only: runs share a chunk.
    """

    def __init__(self, dyn: AffineDynamics, invariant: Condition, transitions, u, h: float,
                 kind: Integrator):
        n = dyn.n
        offset = step(dyn, np.zeros(n), u, h, kind)
        m_mat = np.array([step(dyn, unit, u, h, kind) - offset for unit in np.eye(n)]).T
        powers, offsets = m_mat[None], offset[None]
        while len(powers) < _CHUNK:  # M^(j+k) = M^j M^k, o_(j+k) = M^k o_j + o_k
            top = powers[-1]
            offsets = np.concatenate((offsets, offsets @ top.T + offsets[-1]))
            powers = np.concatenate((powers, powers @ top))
        self.h = h
        self.powers = powers.reshape(_CHUNK * n, n)
        self.offsets = offsets

        columns = []  # (coeffs, bound, slack)

        def tested(cond: Condition) -> slice:
            """Columns for the rows of a condition the per-step path checks with ``_GUARD_SLACK``."""
            rows = cond.halfspaces
            start = len(columns)
            columns.extend((c, d, _GUARD_SLACK) for c, d in zip(rows.coeffs, rows.bounds))
            return slice(start, len(columns))

        self.invariant = tested(invariant)
        guards = [(trans.guard, _first_equality(trans.guard)) for trans in transitions]
        columns.extend((-eq.coeffs, -eq.bound, 0.0) for _, eq in guards if eq is not None)
        self.crossings = slice(self.invariant.stop, len(columns))
        # where each inequality-only guard's columns start; they run to the next guard's
        self.switches = [tested(guard).start for guard, eq in guards if eq is None and not guard.is_true]
        self.coeffs = np.array([c for c, _, _ in columns]).reshape(-1, n).T.copy()
        self.abs_coeffs = np.abs(self.coeffs)
        self.bounds = np.array([d for _, d, _ in columns]).reshape(-1, 1)
        self.slack = np.array([s for _, _, s in columns]).reshape(-1, 1)
        self.scale = np.abs(self.bounds) + self.slack
        for table in (self.powers, self.offsets, self.coeffs, self.abs_coeffs, self.bounds, self.slack,
                      self.scale):
            table.flags.writeable = False

    def advance(self, times, states, i: int, t: float, horizon: float, chunks: int) -> int:
        """Count k of the leading steps from sample i, at time t, with nothing to decide.

        Writes ``chunks`` chunks of steps after sample i of the run's arrays,
        each from the last state of the one before by the product a one-chunk
        call makes, and tests them at once. Such a step is a full step of
        length h, its recorded time advances (``times[i]`` is sample i's), no
        guard may cross on it, it stays inside the invariant, and no tested
        value at either end is within rounding of its threshold.
        """
        end = i + 1 + _CHUNK * chunks
        path = states[i:end]
        for j in range(i, end - 1, _CHUNK):
            block = states[j + 1:j + 1 + _CHUNK]
            np.matmul(self.powers, states[j], block.reshape(-1))
            np.add(block, self.offsets, block)
        last_time = times[i]
        times = times[i:end]
        times.fill(self.h)
        times[0] = t
        np.add.accumulate(times, out=times)  # the same sums as t += h, one step at a time
        if len(self.bounds):
            # one row per column, so that every test below reduces over rows
            margin, band = np.empty((2, len(self.bounds), len(path)))
            np.subtract((path @ self.coeffs).T, self.bounds, margin)
            np.subtract(self.slack, margin, margin)  # slack - (path @ coeffs - bounds)
            np.add((np.abs(path) @ self.abs_coeffs).T, self.scale, band)
            band *= _ROUNDING
            near = (np.abs(margin) <= band).any(axis=0)
            ok = margin >= 0.0
            plain = ~(near[:-1] | near[1:])
            if self.invariant.stop:
                plain &= ok[self.invariant, 1:].all(axis=0)
            if self.switches:
                holds = np.logical_and.reduceat(ok, self.switches, axis=0)
                plain &= (holds[:, :-1] | ~holds[:, 1:]).all(axis=0)
            if self.crossings.start < self.crossings.stop:
                above = ok[self.crossings]
                plain &= (above[:, :-1] == above[:, 1:]).all(axis=0)
        else:
            plain = np.ones(len(path) - 1, dtype=bool)
        # The times never decrease, so every step starts inside the horizon when
        # the last one does; and a time that a step leaves unchanged stays so,
        # so each step advances when h is at least the ulp of the last time.
        if not (self.h >= math.ulp(times[-1]) and times[1] > last_time
                and times[-2] < horizon - 1e-12 and horizon - times[-2] >= self.h):
            plain &= (times[:-1] < horizon - 1e-12) & (horizon - times[:-1] >= self.h)
            times[0] = last_time
            plain &= times[1:] > times[:-1]
        times[0] = last_time
        return len(plain) if plain.all() else int(np.argmin(plain))


def _zeno_estimate(events: list) -> float:
    """Accumulation-time estimate: last event + geometric tail of its gaps."""
    last = events[-1]
    key = (last.source, last.target, last.label)
    series = [e.time for e in events if (e.source, e.target, e.label) == key]
    if len(series) < 3:
        series = [e.time for e in events]
    if len(series) < 3:
        return last.time
    g_prev = series[-2] - series[-3]
    g_last = series[-1] - series[-2]
    if g_prev <= 0.0 or g_last <= 0.0:
        return last.time
    ratio = g_last / g_prev
    if ratio >= 1.0:
        return last.time + g_last
    return last.time + g_last * ratio / (1.0 - ratio)


def simulate(bundle: ModelBundle, x0, kind: Integrator = Integrator.HEUN,
             options: SimOptions = SimOptions()) -> Trajectory:
    """Simulate one hybrid run from x0 in the bundle's initial location.

    Ends at the horizon, on Zeno accumulation (zeno flag set), or when the
    invariant is violated with no enabled transition (truncated). Among
    simultaneously enabled transitions the one declared first wins.
    """
    automaton = bundle.automaton.resolved
    table = automaton.vars
    loc = automaton.location(bundle.initial.location)
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (table.n,):
        raise ValueError(f"x0 must have {table.n} entries")
    if not loc.invariant.satisfied(x, _GUARD_SLACK):
        raise InitOutsideInvariant(f"x0 violates invariant of {loc.name!r}")

    u = automaton.input_box().center if table.m else np.zeros(0)

    horizon = options.horizon if options.horizon is not None else bundle.settings.horizon
    h = options.step

    # The samples go into one time array and one state array, sized for a run
    # with no events (at most 2**20 steps at first) and doubled when full.
    times = np.empty(int(min(horizon / h, 2**20)) + 2 * _CHUNK)
    states = np.empty((len(times), table.n))
    times[0], states[0], count = 0.0, x, 1
    locs = [loc.name]
    events: list = []
    zeno, zeno_time, truncated = False, None, None
    streak, plain_run, t = 0, 0, 0.0  # plain_run: chunks in a row plain to their last step

    outgoing = automaton.outgoing
    if automaton.__dict__.get("_chunks", (None,))[0] != (h, kind):  # keyed by step and integrator: no cached_property
        automaton.__dict__["_chunks"] = ((h, kind), {})
    chunks = automaton.__dict__["_chunks"][1]

    while t < horizon - 1e-12:
        chunk = chunks.get(loc.name)
        if chunk is None:
            chunk = chunks[loc.name] = _Chunk(loc.dynamics, loc.invariant, outgoing[loc.name], u, h, kind)
        # a long flight chains chunks, up to the horizon; its first two go one at a time
        chain = 1 if plain_run < 2 else int(min(_CHAIN, (horizon - t) / (_CHUNK * h) + 1.0))
        if count + _CHUNK * chain > len(times):
            size = max(2 * len(times), count + _CHUNK * chain)
            times, states = (np.concatenate((a[:count], np.empty((size - count, *a.shape[1:]))))
                             for a in (times, states))
        k = chunk.advance(times, states, count - 1, t, horizon, chain)
        plain_run = plain_run + chain if k == _CHUNK * chain else 0
        if k:
            locs.extend([loc.name] * k)
            count += k
            t, x = float(times[count - 1]), states[count - 1]
            if plain_run or not t < horizon - 1e-12:
                continue

        # the per-step path, for the one step the chunk could not take plainly
        step_h = min(h, horizon - t)
        x_next = step(loc.dynamics, x, u, step_h, kind)
        best = None
        for trans in outgoing[loc.name]:
            hit = detect_event(loc.dynamics, trans, x, t, step_h, kind, u, x_next)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = (hit[0], trans, hit[1])
        if best is not None:
            tau, trans, x_cross = best
            t_event = t + tau
            if events and t_event <= events[-1].time:
                t_event = math.nextafter(events[-1].time, math.inf)
            x_post = trans.reset.apply(x_cross)
            events.append(SimEvent(t_event, trans.label, trans.source, trans.target,
                                   x_cross.copy(), x_post.copy()))
            if len(events) > _MAX_EVENTS:
                raise MaxEventsExceeded(f"more than {_MAX_EVENTS} events without Zeno accumulation")
            loc, x, t = automaton.location(trans.target), x_post, t_event
        elif not loc.invariant.satisfied(x_next, _GUARD_SLACK):
            tau, x = _invariant_exit(loc.dynamics, loc.invariant, x, step_h, kind, u, x_next)
            t += tau
            truncated = f"invariant of {loc.name!r} blocks continuation with no enabled transition"
        else:
            t += step_h
            x = x_next
        _append_sample(times, states, count, t, x)
        locs.append(loc.name)
        count += 1
        if truncated is not None:
            break
        if best is not None:
            if not loc.invariant.satisfied(x, 1e-7):
                truncated = f"reset lands outside invariant of {loc.name!r}"
                break
            gap = t_event - events[-2].time if len(events) >= 2 else math.inf
            streak = streak + 1 if gap < _ZENO_DWELL else 0
            if streak >= _ZENO_COUNT:
                zeno = True
                zeno_time = _zeno_estimate(events)
                break

    if 2 * count < len(times):  # a run that ended early keeps arrays of its own size
        times, states = times[:count].copy(), states[:count].copy()
    return Trajectory(times[:count], locs, states[:count], events, zeno, zeno_time, truncated)


def _append_sample(times, states, count: int, t: float, x):
    """Write sample ``count``; a time that does not pass the last one moves just past it."""
    if t <= times[count - 1]:
        t = math.nextafter(times[count - 1], math.inf)
    times[count] = t
    states[count] = x


def _invariant_exit(dyn, invariant, x, h, kind, u, x_after):
    """Last time in [0, h] still (weakly) inside the invariant, located by ``_locate``.

    ``x_after``, the state ``step`` reaches at h, lies outside.
    """
    a, xa, _, _ = _locate(dyn.a, _drive(dyn, u), np.asarray(x, dtype=float), x_after, kind, h,
                          1e-12 * max(1.0, h), _levels(invariant, _GUARD_SLACK),
                          lambda xm: invariant.satisfied(xm, _GUARD_SLACK))
    return a, xa


def sample_initial(box: Box, k: int, seed: int) -> list:
    """k deterministic points of the box; all corners come first when they fit, then uniform draws:
    ``center + radius * U(-1, 1)``, clipped to the box, where ``hi - lo`` passes the largest float."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = box.dim
    points = []
    if n <= 30 and k >= 2**n:
        for idx in range(2**n):
            corner = np.where(
                [(idx >> d) & 1 for d in range(n)], box.hi, box.lo
            ).astype(float)
            points.append(corner)
    rng = np.random.default_rng(seed)
    with np.errstate(over="ignore"):
        wide = not np.isfinite(box.hi - box.lo).all()
        center, radius = center_radius(box.lo, box.hi)
        while len(points) < k:  # center + radius may round past the largest float: the clip brings it back
            points.append(np.clip(center + radius * rng.uniform(-1.0, 1.0, n), box.lo, box.hi) if wide
                          else rng.uniform(box.lo, box.hi))
    return points[:k]


def trajectory_to_csv(traj: Trajectory, state_vars) -> str:
    """One ``format_table`` line per sample: time, location, state."""
    return format_table(("time", "location", *state_vars),
                        [np.reshape(traj.times, (-1, 1)), traj.locations, traj.states])


def events_to_csv(traj: Trajectory, state_vars) -> str:
    """One ``format_table`` line per event: time, label, source, target, state before and after."""
    events = traj.events
    header = ["time", "label", "source", "target"]
    header += [f"pre_{v}" for v in state_vars] + [f"post_{v}" for v in state_vars]
    states = np.reshape([np.concatenate((e.pre_state, e.post_state)) for e in events], (len(events), 2 * len(state_vars)))
    return format_table(header, [np.reshape([e.time for e in events], (-1, 1)), [e.label or "" for e in events],
                                 [e.source for e in events], [e.target for e in events], states])
