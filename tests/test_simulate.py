import importlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from hyra.cli import main
from hyra.corpus import build_bouncing_ball, build_linswitch, build_platoon, build_tank
from hyra.errors import InitOutsideInvariant, MaxEventsExceeded, NonFiniteFlowpipe
from hyra.expressions import format_number
from hyra.ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    LinearConstraint,
    Location,
    ModelBundle,
    ReachSettings,
    ResetMap,
    Transition,
    VariableTable,
    bind_constant,
)
from hyra.sets import Box, center_radius
from hyra.simulate import (
    _EVENT_CHECK_SLACK,
    _GUARD_SLACK,
    Integrator,
    SimEvent,
    SimOptions,
    Trajectory,
    _Chunk,
    _drive,
    _first_equality,
    _first_root,
    _invariant_exit,
    _substep,
    _zeno_estimate,
    detect_event,
    events_to_csv,
    sample_initial,
    simulate,
    step,
    trajectory_to_csv,
)
from support import CORPUS_DIR, condition_holds_reference

simulate_module = importlib.import_module("hyra.simulate")

GRAVITY = 9.81
MAX = np.finfo(float).max

DECAY = AffineDynamics([[-1.0]], np.zeros((1, 0)), [0.0])
FALL = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, -GRAVITY])
RISE = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, 1.0])


# ---------------------------------------------------------------------------
# one-step integrators


def test_frozen_dynamics_fixed_point():
    dyn = AffineDynamics.zero(3)
    x = np.array([1.0, -2.0, 0.5])
    for kind in Integrator:
        assert np.array_equal(step(dyn, x, (), 0.1, kind), x)


def test_decay_step_values():
    x = np.array([1.0])
    assert step(DECAY, x, (), 0.1, Integrator.EULER)[0] == pytest.approx(0.9, abs=1e-15)
    assert step(DECAY, x, (), 0.1, Integrator.HEUN)[0] == pytest.approx(0.905, abs=1e-15)


def test_heun_exact_for_constant_acceleration():
    h = 0.25
    x = np.array([10.0, 0.0])
    got = step(FALL, x, (), h, Integrator.HEUN)
    assert got[0] == pytest.approx(10.0 - 0.5 * GRAVITY * h * h, abs=1e-14)
    assert got[1] == pytest.approx(-GRAVITY * h, abs=1e-14)
    euler = step(FALL, x, (), h, Integrator.EULER)
    assert abs(euler[0] - (10.0 - 0.5 * GRAVITY * h * h)) == pytest.approx(0.5 * GRAVITY * h * h, rel=1e-12)


def test_convergence_orders_on_decay():
    truth = math.exp(-1.0)
    steps = [1e-1, 1e-2, 1e-3, 1e-4]
    errors = {Integrator.EULER: [], Integrator.HEUN: []}
    for h in steps:
        n = round(1.0 / h)
        for kind in errors:
            x = np.array([1.0])
            for _ in range(n):
                x = step(DECAY, x, (), h, kind)
            errors[kind].append(abs(x[0] - truth))
    slopes = {
        kind: np.polyfit(np.log(steps), np.log(errs), 1)[0] for kind, errs in errors.items()
    }
    assert abs(slopes[Integrator.EULER] - 1.0) <= 0.2
    assert abs(slopes[Integrator.HEUN] - 2.0) <= 0.2


# ---------------------------------------------------------------------------
# event detection


def test_ball_first_event_time_matches_closed_form():
    bundle = build_bouncing_ball()
    traj = simulate(bundle, [10.1, 0.0, 10.1, 0.0], Integrator.HEUN, SimOptions(step=1e-4, horizon=2.0))
    oracle = math.sqrt(2 * 10.1 / GRAVITY)
    assert traj.events[0].time == pytest.approx(oracle, abs=1e-6)


def test_no_crossing_means_no_event():
    bundle = build_bouncing_ball()
    automaton = bundle.automaton.resolved
    dyn = automaton.location("always").dynamics
    trans = automaton.transitions[0]
    x0 = np.array([10.0, 0.0, 10.0, 0.0])
    hit = detect_event(dyn, trans, x0, 0.0, 0.01, Integrator.HEUN, (), step(dyn, x0, (), 0.01, Integrator.HEUN))
    assert hit is None


def test_crossing_at_step_boundary_is_detected():
    # x' = -1 from 0.1 with guard x <= 0: the crossing sits exactly at tau = 0.1
    dyn = AffineDynamics([[0.0]], np.zeros((1, 0)), [-1.0])
    trans = Transition("a", "a", Condition((LinearConstraint([1.0], "<=", 0.0),)), ResetMap.identity(1))
    x0 = np.array([0.1])
    hit = detect_event(dyn, trans, x0, 0.0, 0.1, Integrator.HEUN, (), step(dyn, x0, (), 0.1, Integrator.HEUN))
    assert hit is not None
    tau, state = hit
    assert tau == pytest.approx(0.1, abs=1e-9)
    assert state[0] == pytest.approx(0.0, abs=1e-9)


def test_upward_guard_crossing_does_not_fire():
    # guard x == 0 & v <= 0 must not fire while moving up through zero
    rising = np.array([-0.001, 5.0])
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, -GRAVITY])
    guard = Condition((LinearConstraint([1.0, 0.0], "==", 0.0), LinearConstraint([0.0, 1.0], "<=", 0.0)))
    trans = Transition("a", "a", guard, ResetMap.identity(2))
    x_after = step(dyn, rising, (), 0.01, Integrator.HEUN)
    hit = detect_event(dyn, trans, rising, 0.0, 0.01, Integrator.HEUN, (), x_after)
    assert hit is None


# ---------------------------------------------------------------------------
# closed-form event times against the plain bisection


def bisect_event(dyn, transition, x_before, t, h, kind, u):
    """``detect_event`` as a plain bisection over [0, h], with no closed-form seed."""
    guard = transition.guard
    if guard.is_true:
        return None
    x0 = np.asarray(x_before, dtype=float)
    drive = _drive(dyn, u)
    x1 = _substep(dyn.a, drive, x0, h, kind)
    tol = 1e-9 * max(1.0, t)
    con = _first_equality(guard)
    if con is not None:
        g0 = float(con.coeffs @ x0) - con.bound
        g1 = float(con.coeffs @ x1) - con.bound
        if g0 * g1 > 0.0 or (g0 == 0.0 and g1 == 0.0):
            return None
        a, b, xa = 0.0, h, x0
        while b - a > tol:
            mid = 0.5 * (a + b)
            xm = _substep(dyn.a, drive, x0, mid, kind)
            gm = float(con.coeffs @ xm) - con.bound
            if (gm > 0.0) == (g0 > 0.0) and gm != 0.0:
                a, xa = mid, xm
            else:
                b = mid
        return (a, xa) if condition_holds_reference(guard, xa, _EVENT_CHECK_SLACK) else None
    if condition_holds_reference(guard, x0, _GUARD_SLACK) or not condition_holds_reference(guard, x1, _GUARD_SLACK):
        return None
    a, b, xb = 0.0, h, x1
    while b - a > tol:
        mid = 0.5 * (a + b)
        xm = _substep(dyn.a, drive, x0, mid, kind)
        if condition_holds_reference(guard, xm, _GUARD_SLACK):
            b, xb = mid, xm
        else:
            a = mid
    return b, xb


def bisect_invariant_exit(dyn, invariant, x, h, kind, u):
    """``_invariant_exit`` as a plain bisection over [0, h], with no closed-form seed."""
    drive = _drive(dyn, u)
    a, b, xa = 0.0, h, np.asarray(x, dtype=float)
    while b - a > 1e-12 * max(1.0, h):
        mid = 0.5 * (a + b)
        xm = _substep(dyn.a, drive, x, mid, kind)
        if condition_holds_reference(invariant, xm, _GUARD_SLACK):
            a, xa = mid, xm
        else:
            b = mid
    return a, xa


def _random_system(rng):
    """A 1-3-d affine system, a start state, a step length and a start time."""
    n = int(rng.integers(1, 4))
    a = rng.normal(size=(n, n)) * rng.choice([0.0, 0.5, 3.0])
    dyn = AffineDynamics(a, np.zeros((n, 0)), rng.normal(size=n) * 2.0)
    return dyn, rng.normal(size=n), float(rng.choice([1e-3, 0.05, 0.5])), float(rng.choice([0.0, 3.7, 120.0]))


def _row_through(rng, dyn, x0, h, kind):
    """A random row c and the level b that c.x takes at a random time of the step (or off it)."""
    c = rng.normal(size=dyn.n)
    tau = rng.uniform(-0.2 * h, 1.2 * h)
    return c, float(c @ _substep(dyn.a, dyn.c, x0, tau, kind))


def _assert_same_time(got, want, tol) -> bool:
    """Both find the crossing or neither, within tol; True when they agree bit for bit."""
    assert (got is None) == (want is None)
    if got is None:
        return False
    assert abs(got[0] - want[0]) <= tol
    return got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("kind", list(Integrator))
def test_equality_guard_crossings_match_the_plain_bisection(kind):
    rng = np.random.default_rng(41)
    hits = same = 0
    for _ in range(300):
        dyn, x0, h, t = _random_system(rng)
        c, b = _row_through(rng, dyn, x0, h, kind)
        constraints = [LinearConstraint(c, "==", b)]
        if rng.random() < 0.5:
            c2, b2 = _row_through(rng, dyn, x0, h, kind)
            constraints.append(LinearConstraint(c2, rng.choice(["<=", ">="]), b2))
        trans = Transition("a", "a", Condition(tuple(constraints)), ResetMap.identity(dyn.n))
        got = detect_event(dyn, trans, x0, t, h, kind, (), step(dyn, x0, (), h, kind))
        same += _assert_same_time(got, bisect_event(dyn, trans, x0, t, h, kind, ()), 1e-9 * max(1.0, t))
        if got is not None:
            hits += 1
            tau, state = got
            assert state is x0 if tau == 0.0 else np.array_equal(state, _substep(dyn.a, dyn.c, x0, tau, kind))
            # the state lies on the side of the surface where the step starts,
            # inside the source invariant that the guard bounds
            g0 = float(c @ x0) - b
            source = Condition((LinearConstraint(c, ">=" if g0 > 0.0 else "<=", b),))
            assert source.satisfied(state) and float(c @ state) != b
    # the seed is the bisection's own final bracket, so the results agree exactly
    # unless a midpoint falls within rounding of the root
    assert hits > 50 and same >= 0.95 * hits


@pytest.mark.parametrize("kind", list(Integrator))
def test_inequality_guard_switches_match_the_plain_bisection(kind):
    rng = np.random.default_rng(42)
    hits = same = 0
    for _ in range(300):
        dyn, x0, h, t = _random_system(rng)
        constraints = []
        for _ in range(int(rng.integers(1, 4))):
            c, b = _row_through(rng, dyn, x0, h, kind)
            constraints.append(LinearConstraint(c, ">=" if float(c @ x0) < b else "<=", b))
        guard = Condition(tuple(constraints))
        trans = Transition("a", "a", guard, ResetMap.identity(dyn.n))
        got = detect_event(dyn, trans, x0, t, h, kind, (), step(dyn, x0, (), h, kind))
        same += _assert_same_time(got, bisect_event(dyn, trans, x0, t, h, kind, ()), 1e-9 * max(1.0, t))
        if got is not None:
            hits += 1
            tau, state = got
            assert np.array_equal(state, _substep(dyn.a, dyn.c, x0, tau, kind))
            assert condition_holds_reference(guard, state, _GUARD_SLACK)
    assert hits > 50 and same >= 0.95 * hits


@pytest.mark.parametrize("kind", list(Integrator))
def test_invariant_exits_match_the_plain_bisection(kind):
    rng = np.random.default_rng(43)
    exits = earlier = 0
    for _ in range(300):
        dyn, x0, h, _ = _random_system(rng)
        constraints = []
        for _ in range(int(rng.integers(1, 4))):
            c, b = _row_through(rng, dyn, x0, h, kind)
            constraints.append(LinearConstraint(c, "<=" if float(c @ x0) < b else ">=", b))
        invariant = Condition(tuple(constraints))
        if invariant.satisfied(_substep(dyn.a, dyn.c, x0, h, kind), _GUARD_SLACK):
            continue  # the simulator asks only when the full step leaves the invariant
        exits += 1
        tol = 1e-12 * max(1.0, h)
        tau, state = _invariant_exit(dyn, invariant, x0, h, kind, (), step(dyn, x0, (), h, kind))
        want_tau, _ = bisect_invariant_exit(dyn, invariant, x0, h, kind, ())
        assert invariant.satisfied(state, _GUARD_SLACK)
        if abs(tau - want_tau) > tol:
            # the run leaves, comes back and leaves again within the step: the
            # bisection settles on a later exit, the closed form on the first
            assert tau < want_tau
            assert not invariant.satisfied(_substep(dyn.a, dyn.c, x0, tau + tol, kind), _GUARD_SLACK)
            earlier += 1
    assert exits > 50 and earlier <= exits // 20


def _line(slope):
    """x' = slope in one dimension."""
    return AffineDynamics([[0.0]], np.zeros((1, 0)), [slope])


def _crossing(relation, bound, n=1):
    row = [1.0] + [0.0] * (n - 1)
    return Transition("a", "a", Condition((LinearConstraint(row, relation, bound),)), ResetMap.identity(n))


@pytest.mark.parametrize("kind", list(Integrator))
@pytest.mark.parametrize("dyn, x0, trans, h", [
    pytest.param(_line(-1.0), [0.0], _crossing("==", 0.0), 0.5, id="root-at-0"),
    pytest.param(_line(-1.0), [0.5], _crossing("==", 0.0), 0.5, id="root-at-h"),
    pytest.param(_line(-1.0), [0.5], _crossing("<=", 0.0), 0.5, id="switch-at-h"),
    # x(tau) = (tau - 0.5)^2 / 2 under Heun: a double root at tau = h
    pytest.param(RISE, [0.125, -0.5], _crossing("==", 0.0, 2), 0.5, id="tangent-at-h"),
    # the same parabola touching zero mid-step: no crossing
    pytest.param(RISE, [0.125, -0.5], _crossing("==", 0.0, 2), 1.0, id="tangent-mid-step"),
    pytest.param(_line(0.0), [0.0], _crossing("==", 0.0), 0.5, id="constant-on-surface"),
    pytest.param(_line(0.0), [1.0], _crossing("<=", 0.0), 0.5, id="constant-off-guard"),
])
def test_edge_cases_match_the_plain_bisection(kind, dyn, x0, trans, h):
    got = detect_event(dyn, trans, np.array(x0), 2.0, h, kind, (), step(dyn, x0, (), h, kind))
    want = bisect_event(dyn, trans, np.array(x0), 2.0, h, kind, ())
    _assert_same_time(got, want, 2e-9)
    if got is not None:
        assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("x0", [-_GUARD_SLACK, 0.0])
def test_invariant_exit_at_the_step_start(x0):
    # x' = -1 under x >= 0, from its slack edge (last inside time 0) and from 0
    invariant = Condition((LinearConstraint([1.0], ">=", 0.0),))
    x_after = step(_line(-1.0), [x0], (), 0.1, Integrator.HEUN)
    got = _invariant_exit(_line(-1.0), invariant, np.array([x0]), 0.1, Integrator.HEUN, (), x_after)
    want = bisect_invariant_exit(_line(-1.0), invariant, np.array([x0]), 0.1, Integrator.HEUN, ())
    assert got[0] == want[0] and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("g0, d1, d2, h, root", [
    (0.0, -1.0, 0.0, 1.0, 0.0),  # on the surface at the start
    (1.0, -1.0, 0.0, 1.0, 1.0),  # linear (d2 == 0), root at h
    (1.0, -1.0, 0.0, 0.5, None),  # linear, root past h
    (0.5, -1.0, 1.0, 2.0, 1.0),  # (tau - 1)^2 / 2: a double root
    (0.5, -1.0, 0.5, 4.0, 2.0 - math.sqrt(2.0)),  # first of two roots
    (1.0, 0.0, 0.0, 1.0, None),  # constant (d1 == d2 == 0), off the surface
    (0.0, 0.0, 0.0, 1.0, None),  # constant on the surface: sliding, not a crossing
    (1.0, 0.0, 1.0, 1.0, None),  # no real root
    (-1.0, 1e8, 1.0, 1.0, 1e-8 - 5e-25),  # no cancellation in the small root
])
def test_first_root(g0, d1, d2, h, root):
    got = _first_root(g0, d1, d2, h)
    if root is None:
        assert got is None
    else:
        assert got == pytest.approx(root, rel=1e-15, abs=1e-300)


def test_a_confirmed_seed_leaves_the_bisection_nothing_to_halve(monkeypatch):
    # the ball's impact step: the two bracket edges, no midpoints; the full
    # step comes from the caller
    automaton = build_bouncing_ball().automaton.resolved
    dyn, trans = automaton.location("always").dynamics, automaton.transitions[0]
    x0 = np.array([0.004, -9.0, 5.0, 0.0])  # lands at about tau = 4.4e-4
    x_after = step(dyn, x0, (), 1e-3, Integrator.HEUN)
    calls = []

    def counted(*args):
        calls.append(args[3])
        return _substep(*args)

    monkeypatch.setattr(simulate_module, "_substep", counted)
    hit = detect_event(dyn, trans, x0, 12.0, 1e-3, Integrator.HEUN, (), x_after)
    assert len(calls) == 2 and calls[0] == hit[0] and 1e-3 not in calls
    want = bisect_event(dyn, trans, x0, 12.0, 1e-3, Integrator.HEUN, ())
    assert hit[0] == want[0] and np.array_equal(hit[1], want[1])


def test_each_per_step_path_step_runs_one_full_step(monkeypatch):
    # the per-step path steps once and hands the end state to detect_event,
    # which then runs no full-length _substep of its own
    full, starts = [], []

    def counted(a_mat, drive, x, tau, kind, f0=None):
        full.append((x.tobytes(), tau))
        return _substep(a_mat, drive, x, tau, kind, f0)

    def traced(dyn, transition, x_before, t, h, *rest):
        starts.append((np.asarray(x_before, dtype=float).tobytes(), h))
        return detect_event(dyn, transition, x_before, t, h, *rest)

    monkeypatch.setattr(simulate_module, "_substep", counted)
    monkeypatch.setattr(simulate_module, "detect_event", traced)
    bundle = build_bouncing_ball()
    options = SimOptions(step=bundle.settings.step / 10.0)
    for x0 in sample_initial(bundle.initial.box, 3, seed=12):
        starts.clear()
        full.clear()
        traj = simulate(bundle, x0, Integrator.HEUN, options)
        steps = set(starts)  # each per-step-path step tests both balls' transitions
        assert traj.events and len(steps) >= len(traj.events)
        calls = Counter(full)
        assert all(calls[key] == 1 for key in steps)


def test_simulate_benchmark_runs_never_fall_back_to_the_plain_bisection(monkeypatch):
    # Tripwire: ``_bisect`` may settle on a later switch than the first. The
    # benchmark's runs (Heun at step/10 from three seeded starts per model)
    # and Euler's (one start for the ball: about 0.5 s and 10,000 ``_locate``
    # calls) must each confirm a closed-form root instead.
    where, located, fallbacks = {}, [], []
    detect, locate, bisect = detect_event, simulate_module._locate, simulate_module._bisect

    def traced(dyn, transition, x_before, t, *rest):
        where["t"] = t
        return detect(dyn, transition, x_before, t, *rest)

    def counted(*args):
        located.append(None)
        return locate(*args)

    def fell_back(*args):
        fallbacks.append((where["model"], where["kind"], where["t"]))
        return bisect(*args)

    monkeypatch.setattr(simulate_module, "detect_event", traced)
    monkeypatch.setattr(simulate_module, "_locate", counted)
    monkeypatch.setattr(simulate_module, "_bisect", fell_back)
    for build in (build_bouncing_ball, build_tank, build_linswitch, build_platoon):
        bundle = build()
        options = SimOptions(step=bundle.settings.step / 10.0)
        for kind in Integrator:
            starts = sample_initial(bundle.initial.box, 3, seed=5)
            for x0 in starts[:1] if build is build_bouncing_ball and kind == Integrator.EULER else starts:
                where.update(model=bundle.automaton.name, kind=kind.value)
                simulate(bundle, x0, kind, options)
    assert not fallbacks, f"fallback bisection at (model, integrator, step start): {fallbacks}"
    assert len(located) > 5000


# ---------------------------------------------------------------------------
# whole runs


def test_first_rebound_speed():
    bundle = build_bouncing_ball()
    traj = simulate(bundle, [10.1, 0.0, 10.1, 0.0], Integrator.HEUN, SimOptions(step=1e-4, horizon=2.0))
    oracle = 0.75 * math.sqrt(2 * GRAVITY * 10.1)
    assert traj.events[0].post_state[1] == pytest.approx(oracle, abs=1e-3)


def test_zeno_flag_and_accumulation_estimate():
    bundle = build_bouncing_ball()
    for height in (10.0, 10.2):
        traj = simulate(bundle, [height, 0.0, height, 0.0], Integrator.HEUN, SimOptions(step=1e-3))
        oracle = math.sqrt(2 * height / GRAVITY) * (1 + 0.75) / (1 - 0.75)
        assert traj.zeno
        assert traj.zeno_time == pytest.approx(oracle, abs=1e-3)
        assert traj.times[-1] < 11.0  # halted well before the 40 s horizon


def test_constant_model_never_zeno():
    bundle = build_platoon()  # spontaneous transitions are not taken
    traj = simulate(bundle, np.full(18, 1.0), Integrator.HEUN, SimOptions(step=0.01, horizon=1.0))
    assert not traj.zeno
    assert not traj.events
    assert traj.times[-1] == pytest.approx(1.0)


def test_frozen_dynamics_give_constant_samples():
    automaton = HybridAutomaton(
        "still",
        VariableTable(("x", "y")),
        (Location("rest", Condition(), AffineDynamics.zero(2)),),
        (),
    )
    bundle = ModelBundle(
        automaton,
        ReachSettings(1.0, 0.1, 0, None, None, False),
        InitialCondition("rest", Box([3.0, -1.0], [3.0, -1.0])),
    )
    traj = simulate(bundle, [3.0, -1.0], Integrator.HEUN, SimOptions(step=0.1))
    assert not traj.zeno and not traj.events
    assert np.all(traj.states == [3.0, -1.0])
    assert len(traj.times) == 11


def test_rebound_ratio_across_five_bounces():
    bundle = build_bouncing_ball()
    traj = simulate(bundle, [10.1, 0.0, 10.1, 0.0], Integrator.HEUN, SimOptions(step=1e-4, horizon=9.0))
    speeds = [abs(e.post_state[1]) for e in traj.events if e.label == "bounce"][:6]
    assert len(speeds) >= 6
    for before, after in zip(speeds, speeds[1:]):
        assert after / before == pytest.approx(0.75, abs=1e-3)


def test_event_times_strictly_increase():
    bundle = build_bouncing_ball()
    traj = simulate(bundle, [10.0, 0.0, 10.2, 0.0], Integrator.HEUN, SimOptions(step=1e-3))
    times = [e.time for e in traj.events]
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


def test_events_satisfy_their_guards():
    bundle = build_tank()
    traj = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.01))
    automaton = bundle.automaton.resolved
    by_key = {(t.source, t.target): t for t in automaton.transitions}
    assert traj.events
    for event in traj.events:
        guard = by_key[(event.source, event.target)].guard
        assert guard.satisfied(event.pre_state, 1e-6)


@pytest.mark.parametrize("v, fires", [(2e-9, True), (5e-7, True), (9e-7, True), (1.1e-6, False)])
def test_an_equality_crossing_checks_every_guard_row_with_the_event_slack(v, fires):
    # x' = v crosses x == 0 mid-step with v a little above 0: every row of the
    # guard x == 0 & v <= 0 is read with slack 1e-6 at the crossing, not only
    # the surface row
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, 0.0])
    guard = Condition((LinearConstraint([1.0, 0.0], "==", 0.0), LinearConstraint([0.0, 1.0], "<=", 0.0)))
    trans = Transition("a", "a", guard, ResetMap.identity(2))
    h, x0 = 1e-3, np.array([-0.5e-3 * v, v])
    hit = detect_event(dyn, trans, x0, 0.0, h, Integrator.HEUN, (), step(dyn, x0, (), h, Integrator.HEUN))
    assert (hit is not None) == fires == (v <= _EVENT_CHECK_SLACK)
    if fires:
        assert hit[0] == pytest.approx(0.5 * h, abs=1e-9) and hit[1][1] == v


@pytest.mark.parametrize("kind", list(Integrator))
def test_a_run_that_leaves_the_float_range_raises(kind):
    growth = HybridAutomaton("grow", VariableTable(("x",)),
                             (Location("up", Condition(), AffineDynamics([[10.0]], np.zeros((1, 0)), [0.0])),), ())
    bundle = ModelBundle(growth, ReachSettings(100.0, 0.1, 0, None, None, False),
                         InitialCondition("up", Box([1.0], [1.0])))
    h = 0.01
    growth_per_step = 1.0 + 10.0 * h + (0.5 * (10.0 * h) ** 2 if kind == Integrator.HEUN else 0.0)
    first = math.ceil(math.log(MAX) / math.log(growth_per_step)) * h  # the first sample past the largest float
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow on the way out
        with pytest.raises(NonFiniteFlowpipe, match="^run left the floating-point range at t=") as info:
            simulate(bundle, [1.0], kind, SimOptions(step=h))
    reported = float(str(info.value).split("t=", 1)[1].split(";", 1)[0])
    assert reported == pytest.approx(first, abs=2 * h)
    assert str(info.value).endswith("; the dynamics diverge over the horizon")


def test_linswitch_cycles_without_false_zeno():
    bundle = build_linswitch()
    traj = simulate(bundle, np.full(4, 1.0), Integrator.HEUN, SimOptions(step=4e-4))
    assert not traj.zeno
    visited = [e.target for e in traj.events]
    assert visited[:3] == ["q2", "q3", "q4"]


def test_simulation_is_deterministic():
    bundle = build_tank()
    a = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.01))
    b = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.01))
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
    assert [e.time for e in a.events] == [e.time for e in b.events]


@pytest.mark.parametrize("field, value", [
    ("step", 0.0), ("step", -0.01), ("step", math.nan), ("step", math.inf), ("step", -math.inf),
    ("horizon", 0.0), ("horizon", -1.0), ("horizon", math.nan), ("horizon", math.inf),
])
def test_options_reject_a_step_or_horizon_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValueError, match=f"need a finite {field} > 0"):
        SimOptions(**{field: value})


def test_options_keep_an_unset_horizon():
    assert SimOptions(step=1e-3).horizon is None


def test_a_step_too_small_to_count_its_horizon_is_rejected_as_reach_rejects_it():
    # horizon / step overflows to inf: the run would step toward a horizon 5e320 steps away
    message = "step 1e-320 is too small for horizon 5.0: horizon / step overflows"
    with pytest.raises(ValueError, match=message):
        SimOptions(step=1e-320, horizon=5.0)
    bundle = build_tank()  # its horizon is 5
    x0 = sample_initial(bundle.initial.box, 1, seed=0)[0]
    with pytest.raises(ValueError, match=message):
        simulate(bundle, x0, Integrator.HEUN, SimOptions(step=1e-320))
    assert SimOptions(step=1e-300, horizon=5.0).step == 1e-300  # a finite count, however large


def test_start_outside_invariant_rejected():
    bundle = build_bouncing_ball()
    with pytest.raises(InitOutsideInvariant):
        simulate(bundle, [-1.0, 0.0, 10.0, 0.0], Integrator.HEUN, SimOptions(step=1e-3))


def test_event_cap_raises_when_zeno_detection_is_off(monkeypatch):
    bundle = build_bouncing_ball()
    monkeypatch.setattr(simulate_module, "_ZENO_DWELL", 0.0)
    monkeypatch.setattr(simulate_module, "_MAX_EVENTS", 5)
    with pytest.raises(MaxEventsExceeded):
        simulate(bundle, [10.0, 0.0, 10.0, 0.0], Integrator.HEUN, SimOptions(step=1e-3))


# ---------------------------------------------------------------------------
# initial sampling and exports


def test_point_box_sampling_repeats_the_point():
    box = Box([1.0, 2.0], [1.0, 2.0])
    points = sample_initial(box, 5, seed=0)
    assert len(points) == 5
    for p in points:
        assert np.array_equal(p, [1.0, 2.0])


def test_four_samples_on_a_square_are_the_corners():
    box = Box([0.0, 0.0], [1.0, 1.0])
    points = sample_initial(box, 4, seed=0)
    got = {tuple(p) for p in points}
    assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)}


def test_samples_of_a_box_are_the_corners_then_uniform_draws():
    box = Box([0.0, -1.0, 2.0], [1.0, 1.0, 2.5])
    rng = np.random.default_rng(7)
    want = [rng.uniform(box.lo, box.hi) for _ in range(5)]
    assert all(np.array_equal(x, y) for x, y in zip(sample_initial(box, 5, seed=7), want))
    corners = sample_initial(box, 10, seed=7)
    assert {tuple(p) for p in corners[:8]} == {(x, y, z) for x in (0.0, 1.0) for y in (-1.0, 1.0) for z in (2.0, 2.5)}
    rng = np.random.default_rng(7)
    assert all(np.array_equal(x, rng.uniform(box.lo, box.hi)) for x in corners[8:])


@pytest.mark.parametrize("lo, hi", [([-1e308, 0.0], [1e308, 1.0]), ([-MAX, -1.0], [MAX, 2.0]),
                                    ([-1e308, 5.0], [MAX, 5.0])], ids=["wide", "whole-range", "to-max"])
def test_sampling_a_box_wider_than_the_float_range_draws_center_plus_radius_inside_it(lo, hi):
    box = Box(lo, hi)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = sample_initial(box, 40, seed=3)
    rng = np.random.default_rng(3)
    center, radius = center_radius(box.lo, box.hi)
    with np.errstate(over="ignore"):
        want = [np.clip(center + radius * rng.uniform(-1.0, 1.0, 2), box.lo, box.hi) for _ in range(36)]
    assert all(np.array_equal(x, y) for x, y in zip(points[4:], want))
    assert all(np.all(np.isfinite(p)) and np.all(box.lo <= p) and np.all(p <= box.hi) for p in points)
    assert {tuple(p) for p in points[:4]} == {(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])}


def test_sampling_is_seed_deterministic():
    box = Box([0.0, 0.0], [1.0, 1.0])
    a = sample_initial(box, 10, seed=42)
    b = sample_initial(box, 10, seed=42)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = sample_initial(box, 10, seed=43)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_csv_exports():
    bundle = build_tank()
    traj = simulate(bundle, [0.5, 0.25, 0.2], Integrator.HEUN, SimOptions(step=0.05))
    table = bundle.automaton.vars.state_vars
    csv = trajectory_to_csv(traj, table)
    lines = csv.splitlines()
    assert lines[0] == "time,location,x1,x2,x3"
    assert len(lines) == 1 + traj.sample_count
    events = events_to_csv(traj, table)
    assert events.splitlines()[0].startswith("time,label,source,target,pre_x1")
    assert len(events.splitlines()) == 1 + len(traj.events)


def _trajectory_csv_by_format_number(traj, names) -> tuple:
    """Both simulation CSVs written one ``format_number`` call per value."""
    lines = ["time,location," + ",".join(names)]
    for t, loc, row in zip(traj.times, traj.locations, traj.states):
        lines.append(",".join([format_number(t), loc] + [format_number(v) for v in row]))
    events = [",".join(["time,label,source,target"] + [f"pre_{v}" for v in names] + [f"post_{v}" for v in names])]
    for e in traj.events:
        values = [*e.pre_state, *e.post_state]
        events.append(",".join([format_number(e.time), e.label or "", e.source, e.target] + [format_number(v) for v in values]))
    return "\n".join(lines) + "\n", "\n".join(events) + "\n"


def _hand_made_trajectory():
    pre = np.array([-0.0, 1e22, 3.0])
    post = np.array([2.0, -7.0, 0.1])
    states = np.array([[-0.0, 1e22, 3.0], [2.0, -1e-300, 5e-324], [math.nan, math.inf, -math.inf]])
    event = SimEvent(1e22, None, "a", "b", pre, post)
    return Trajectory(np.array([0.0, 1.0, 1.5e-5]), ["a", "b", "b"], states, [event]), ("x", "y", "z")


def _corpus_trajectory(build):
    def make():
        bundle = build()
        x0 = sample_initial(bundle.initial.box, 1, seed=3)[0]
        traj = simulate(bundle, x0, Integrator.HEUN, SimOptions(step=bundle.settings.step / 10.0))
        return traj, bundle.automaton.vars.state_vars
    return make


@pytest.mark.parametrize("make", [
    _hand_made_trajectory,
    *(_corpus_trajectory(b) for b in (build_bouncing_ball, build_tank, build_linswitch, build_platoon)),
], ids=["hand-made", "bouncing-ball", "tank3", "linswitch4", "platoon6"])
def test_csv_exports_format_every_value_like_format_number(make):
    traj, names = make()
    assert (trajectory_to_csv(traj, names), events_to_csv(traj, names)) == _trajectory_csv_by_format_number(traj, names)


def test_csv_exports_hand_made_rows():
    traj, names = _hand_made_trajectory()
    lines = trajectory_to_csv(traj, names).splitlines()
    assert lines[1] == "0,a,0,1e+22,3"
    assert lines[3] == "1.5e-05,b,nan,inf,-inf"
    rows = events_to_csv(traj, names).splitlines()
    assert rows[1] == "1e+22,,a,b,0,1e+22,3,2,-7,0.1"
    traj.events = []
    assert events_to_csv(traj, names) == "time,label,source,target,pre_x,pre_y,pre_z,post_x,post_y,post_z\n"


# ---------------------------------------------------------------------------
# invariant exit and the per-step reference


def _ramp_bundle():
    """x' = 1 under the invariant x <= 1 with no transitions."""
    automaton = HybridAutomaton(
        "ramp",
        VariableTable(("x",)),
        (Location("up", Condition((LinearConstraint([1.0], "<=", 1.0),)),
                  AffineDynamics([[0.0]], np.zeros((1, 0)), [1.0])),),
        (),
    )
    return ModelBundle(
        automaton,
        ReachSettings(2.0, 0.1, 0, None, None, False),
        InitialCondition("up", Box([0.25], [0.25])),
    )


@pytest.mark.parametrize("kind", list(Integrator))
def test_leaving_the_invariant_truncates_at_its_boundary(kind):
    x0 = 0.25
    traj = simulate(_ramp_bundle(), [x0], kind, SimOptions(step=0.01))
    assert traj.truncated is not None and "invariant" in traj.truncated
    assert not traj.events
    assert abs(traj.states[-1, 0] - 1.0) <= 1e-9
    assert traj.times[-1] == pytest.approx(1.0 - x0, abs=1e-9)
    assert np.all(np.diff(traj.times) > 0.0)


def reference_simulate(bundle, x0, kind, options):
    """The plain per-step loop: step(), then detect_event on every transition."""
    automaton = bundle.automaton.resolved
    loc = automaton.location(bundle.initial.location)
    x = np.asarray(x0, dtype=float)
    u = np.zeros(0) if not automaton.vars.m else automaton.input_box().center
    horizon = options.horizon if options.horizon is not None else bundle.settings.horizon
    times, locs, states, events = [0.0], [loc.name], [x], []
    zeno, truncated, streak, t = False, None, 0, 0.0

    def record(t, x):
        times.append(t if t > times[-1] else math.nextafter(times[-1], math.inf))
        locs.append(loc.name)
        states.append(x)

    while t < horizon - 1e-12:
        step_h = min(options.step, horizon - t)
        x_next = step(loc.dynamics, x, u, step_h, kind)
        best = None
        for trans in automaton.outgoing[loc.name]:
            hit = detect_event(loc.dynamics, trans, x, t, step_h, kind, u, x_next)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = (hit[0], trans, hit[1])
        if best is not None:
            tau, trans, x_cross = best
            t_event = t + tau
            if events and t_event <= events[-1].time:
                t_event = math.nextafter(events[-1].time, math.inf)
            x = trans.reset.apply(x_cross)
            events.append(SimEvent(t_event, trans.label, trans.source, trans.target, x_cross, x))
            if len(events) > simulate_module._MAX_EVENTS:
                raise MaxEventsExceeded("event cap")
            loc, t = automaton.location(trans.target), t_event
            record(t, x)
            if not loc.invariant.satisfied(x, 1e-7):
                truncated = "reset"
                break
            gap = t_event - events[-2].time if len(events) >= 2 else math.inf
            streak = streak + 1 if gap < simulate_module._ZENO_DWELL else 0
            if streak >= simulate_module._ZENO_COUNT:
                zeno = True
                break
            continue
        if not loc.invariant.satisfied(x_next, 1e-9):
            tau, x = _invariant_exit(loc.dynamics, loc.invariant, x, step_h, kind, u, x_next)
            t += tau
            record(t, x)
            truncated = "invariant"
            break
        t += step_h
        x = x_next
        record(t, x)
    zeno_time = _zeno_estimate(events) if zeno else None
    return Trajectory(np.array(times), locs, np.array(states), events, zeno, zeno_time, truncated)


def _sawtooth_bundle():
    """x' = -1 from [0.9, 0.95], x := 0.987 on x == 0: a crossing guard and no invariant."""
    automaton = HybridAutomaton(
        "saw",
        VariableTable(("x",)),
        (Location("down", Condition(), AffineDynamics([[0.0]], np.zeros((1, 0)), [-1.0])),),
        (Transition("down", "down", Condition((LinearConstraint([1.0], "==", 0.0),)),
                    ResetMap([[0.0]], [0.987]), "wrap"),),
    )
    return ModelBundle(
        automaton,
        ReachSettings(3.5, 0.1, 3, None, None, False),
        InitialCondition("down", Box([0.9], [0.95])),
    )


def test_crossing_guard_inside_the_invariant_fires():
    traj = simulate(_sawtooth_bundle(), [0.9437], Integrator.HEUN, SimOptions(step=0.01))
    assert [e.time for e in traj.events] == pytest.approx([0.9437, 1.9307, 2.9177], abs=1e-8)
    assert traj.truncated is None and traj.times[-1] == pytest.approx(3.5)


def test_values_within_rounding_of_a_threshold_go_to_the_per_step_path():
    # frozen state 1e-15 off the surface x1 == x2: no sign change, but too
    # close to call for a product whose rounding may differ from a dot product
    dyn = AffineDynamics.zero(2)
    guard = Condition((LinearConstraint([1.0, -1.0], "==", 0.0),))
    chunk = _Chunk(dyn, Condition(), (Transition("a", "a", guard, ResetMap.identity(2)),), (), 0.1,
                   Integrator.HEUN)
    assert _advance(chunk, [1.0, 1.0 + 1e-9], 0.0, 0.0, 100.0)[0] > 0
    assert _advance(chunk, [1.0, 1.0 + 1e-15], 0.0, 0.0, 100.0)[0] == 0


@pytest.mark.parametrize(
    "build", [build_bouncing_ball, build_tank, build_linswitch, build_platoon, _sawtooth_bundle]
)
def test_chunked_simulate_matches_the_per_step_loop(build):
    bundle = build()
    x0 = sample_initial(bundle.initial.box, 1, seed=0)[0]
    _assert_matches_the_per_step_loop(bundle, x0, Integrator.HEUN, SimOptions(step=bundle.settings.step / 10.0))


def test_a_run_that_outgrows_its_first_arrays_matches_the_per_step_loop():
    # Euler's ball bounces about 900 times in 40 s at the shipped step: its
    # samples outgrow the horizon / step + 256 that a run holds at first
    bundle = build_bouncing_ball()
    x0 = sample_initial(bundle.initial.box, 1, seed=0)[0]
    options = SimOptions(step=bundle.settings.step)
    assert _assert_matches_the_per_step_loop(bundle, x0, Integrator.EULER, options) > 4256


def _assert_matches_the_per_step_loop(bundle, x0, kind, options) -> int:
    """The run's sample count, after checking it against ``reference_simulate``."""
    got = simulate(bundle, x0, kind, options)
    want = reference_simulate(bundle, x0, kind, options)
    assert got.sample_count == want.sample_count
    assert got.locations == want.locations
    assert (got.zeno, got.truncated is None) == (want.zeno, want.truncated is None)
    key = [(e.source, e.target, e.label) for e in got.events]
    assert key == [(e.source, e.target, e.label) for e in want.events]
    # The chunk's states differ from the stepped ones in the last bits. That
    # can move a bisection by a few brackets of its tolerance 1e-9 max(1, t)
    # (the ball's Zeno tail), after which the runs differ by that shift.
    shifted = math.inf
    for a, b in zip(got.events, want.events):
        assert abs(a.time - b.time) <= 4e-9 * max(1.0, b.time)
        if a.time != b.time:
            shifted = min(shifted, b.time)
    same = want.times < shifted
    assert np.array_equal(got.times[same], want.times[same])
    # relative per sample: the platoon runs diverge to about 1e23
    err = np.linalg.norm(got.states[same] - want.states[same], axis=1)
    assert np.all(err <= 1e-9 * np.linalg.norm(want.states[same], axis=1))
    return got.sample_count


def _run_key(traj) -> tuple:
    """Everything a run records, in bytes where it is an array."""
    events = [(e.time, e.label, e.source, e.target, e.pre_state.tobytes(), e.post_state.tobytes())
              for e in traj.events]
    return (traj.times.tobytes(), traj.states.tobytes(), traj.locations, events, traj.zeno, traj.zeno_time,
            traj.truncated)


def test_chained_chunks_record_what_one_chunk_calls_record(monkeypatch):
    # two seeded starts per model, Heun and Euler, at the shipped step and at step/10
    chained, advance = [], _Chunk.advance

    def counted(chunk, times, states, i, t, horizon, chunks):
        chained.append(chunks > 1)
        return advance(chunk, times, states, i, t, horizon, chunks)

    runs = 0
    for build in (build_bouncing_ball, build_tank, build_linswitch, build_platoon, _sawtooth_bundle, _ramp_bundle):
        bundle = build()
        for kind in Integrator:
            for h in (bundle.settings.step, bundle.settings.step / 10.0):
                for x0 in sample_initial(bundle.initial.box, 2, seed=runs):
                    runs += 1
                    # Euler's balls gain height at each bounce and never settle: over
                    # the shipped 40 s they bounce about 9,000 times, so they stop at 10 s
                    euler_ball = build is build_bouncing_ball and kind == Integrator.EULER
                    options = SimOptions(step=h, horizon=10.0 if euler_ball else None)
                    with monkeypatch.context() as patch:
                        patch.setattr(simulate_module, "_CHAIN", 1)
                        want = simulate(bundle, x0, kind, options)
                    with monkeypatch.context() as patch:
                        patch.setattr(_Chunk, "advance", counted)
                        got = simulate(bundle, x0, kind, options)
                    assert _run_key(got) == _run_key(want), (bundle.automaton.name, kind, h, x0)
    assert runs == 48 and sum(chained) > 50


def _one_chunk_calls(chunk, x, t, horizon, chunks) -> tuple:
    """(k, times, states) of up to ``chunks`` one-chunk calls, each from the last one's end."""
    ks, times, states, last_time = [], [np.empty(0)], [np.empty((0, len(x)))], t
    while len(ks) < chunks and (not ks or ks[-1] == simulate_module._CHUNK):
        k, block_times, block_states = _advance(chunk, x, t, last_time, horizon)
        ks.append(k)
        times.append(block_times)
        states.append(block_states)
        if k:
            x, t, last_time = block_states[-1], float(block_times[-1]), float(block_times[-1])
    return sum(ks), np.concatenate(times), np.concatenate(states)


@pytest.mark.parametrize("chunks", [2, 3, 8])
def test_advance_over_chained_chunks_matches_one_chunk_calls(chunks):
    # x' = -1 down to the crossing x == 0 and x' = 1 up to the invariant x <= 1:
    # starts that reach the threshold, or come within rounding of it, in any chunk
    h = 0.01
    down = _Chunk(_line(-1.0), Condition(), (_crossing("==", 0.0),), (), h, Integrator.HEUN)
    up = _Chunk(_line(1.0), Condition((LinearConstraint([1.0], "<=", 1.0),)), (), (), h, Integrator.EULER)
    whole = simulate_module._CHUNK * chunks
    span = whole * h
    cases = []
    for steps in (0, 5, 127, 128, 129, *range(190, whole, simulate_module._CHUNK), whole - 1, whole + 3):
        for off in (0.0, 1e-15, -1e-15, 1e-13, 4e-12, 1e-9):
            cases.append((down, [steps * h + off], 0.0, 1e3))
            cases.append((up, [1.0 - steps * h + off], 0.0, 1e3))
    for end in (0.3 * span, span - 0.5 * h, span - 1e-13, span, span + 1e-13, 2.0 * span):
        cases.append((down, [1e3], 7.0, 7.0 + end))  # the horizon ends inside the last chunk, or past it
    chunk = _Chunk(FALL, Condition((LinearConstraint([1.0, 0.0], ">=", 0.0),)), (), (), 1e-3, Integrator.HEUN)
    cases += [(chunk, [height, 0.0], 0.0, 1e3) for height in (0.0, 1e-12, 0.5, 2.0, 5.0, 20.0)]
    reached = set()
    for chunk, x, t, horizon in cases:
        k, times, states = _advance(chunk, np.array(x), t, t, horizon, chunks)
        want_k, want_times, want_states = _one_chunk_calls(chunk, np.array(x), t, horizon, chunks)
        assert k == want_k and len(times) == len(states) == k, (x, t, horizon)
        assert np.array_equal(times, want_times) and np.array_equal(states, want_states), (x, t, horizon)
        reached.add(k // simulate_module._CHUNK)
    assert reached == set(range(chunks + 1))


# ---------------------------------------------------------------------------
# chunk tables shared across runs


def _counted_chunks(monkeypatch) -> list:
    """The chunks ``simulate`` builds from now on, in order."""
    built = []

    class Counted(_Chunk):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(simulate_module, "_Chunk", Counted)
    return built


def test_runs_on_one_automaton_build_each_location_table_once(monkeypatch):
    built = _counted_chunks(monkeypatch)
    bundle = build_bouncing_ball()
    options = SimOptions(step=bundle.settings.step / 10.0)
    visited = set()
    for x0 in sample_initial(bundle.initial.box, 3, seed=7):
        visited |= set(simulate(bundle, x0, Integrator.HEUN, options).locations)
    assert len(built) == len(visited) == 1


def test_cli_seeds_build_each_visited_location_table_once(monkeypatch, tmp_path, capsys):
    built = _counted_chunks(monkeypatch)
    out = tmp_path / "runs.csv"
    assert main(["simulate", str(CORPUS_DIR / "tank3" / "bundle.json"), "--seeds", "3", "--out", str(out)]) == 0
    visited = {line.split(",")[2] for line in out.read_text().splitlines()[1:]}
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(visited) > 1 and len(built) == len(visited)


def test_another_step_integrator_or_automaton_builds_its_own_tables(monkeypatch):
    built = _counted_chunks(monkeypatch)
    bundle = build_bouncing_ball()
    x0 = sample_initial(bundle.initial.box, 1, seed=7)[0]
    h = bundle.settings.step / 10.0
    rebound = ModelBundle(bind_constant(bundle.automaton, "c", 0.9), bundle.settings, bundle.initial)
    runs = [(bundle, h, Integrator.HEUN), (bundle, h / 2, Integrator.HEUN),
            (bundle, h / 2, Integrator.EULER), (rebound, h / 2, Integrator.EULER),
            (bundle, h / 2, Integrator.EULER)]
    counts = []
    for b, step_h, kind in runs:
        simulate(b, x0, kind, SimOptions(step=step_h, horizon=2.0))
        counts.append(len(built))
    assert counts == [1, 2, 3, 4, 4]
    assert [(c.h, c.powers.shape) for c in built[1:3]] == [(h / 2, built[0].powers.shape)] * 2
    assert not np.array_equal(built[1].offsets, built[2].offsets)  # Heun and Euler differ in e only here


@pytest.mark.parametrize("build", [build_bouncing_ball, build_tank, build_linswitch, build_platoon])
def test_a_run_on_shared_tables_writes_the_cold_runs_csv(build):
    bundle = build()
    names = bundle.automaton.vars.state_vars
    x0 = sample_initial(bundle.initial.box, 1, seed=11)[0]
    options = SimOptions(step=bundle.settings.step / 10.0)
    texts = []
    for _ in range(2):
        traj = simulate(bundle, x0, Integrator.HEUN, options)
        texts.append((trajectory_to_csv(traj, names), events_to_csv(traj, names)))
    assert texts[1] == texts[0]


def test_shared_tables_are_read_only(monkeypatch):
    built = _counted_chunks(monkeypatch)
    bundle = build_tank()
    simulate(bundle, sample_initial(bundle.initial.box, 1, seed=7)[0], Integrator.HEUN, SimOptions(step=0.01))
    tables = [value for chunk in built for value in vars(chunk).values() if isinstance(value, np.ndarray)]
    assert built and len(tables) == 7 * len(built)
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[...] = 0.0


def _advance(chunk, x, t, last_time, horizon, chunks=1) -> tuple:
    """(k, times, states) of ``chunk.advance`` from a run whose last sample is (last_time, x)."""
    times = np.full(1 + simulate_module._CHUNK * chunks, np.nan)
    states = np.full((len(times), len(x)), np.nan)
    times[0], states[0] = last_time, x
    k = chunk.advance(times, states, 0, t, horizon, chunks)
    assert times[0] == last_time and np.array_equal(states[0], x)
    return k, times[1:k + 1], states[1:k + 1]


def _step_times(t, h) -> np.ndarray:
    """t, t + h, (t + h) + h, ...: the chunk's step starts and its last step's end."""
    steps = np.full(simulate_module._CHUNK + 1, h)
    steps[0] = t
    return np.cumsum(steps)


def _plain_time_steps(t, last_time, horizon, h) -> tuple:
    """(k, times) of the chunk's time tests, by the plain vector formula."""
    times = _step_times(t, h)
    plain = (times[:-1] < horizon - 1e-12) & (horizon - times[:-1] >= h)
    plain &= times[1:] > np.concatenate(([last_time], times[1:-1]))
    k = simulate_module._CHUNK if plain.all() else int(np.argmin(plain))
    return k, times[1:k + 1]


def _time_cases(seed: int) -> list:
    """Seeded (t, last_time, horizon, h) around every premise of the shortcut."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(400):
        t = float(rng.choice([0.0, 1.0, 1e3, 1e9, 1e15])) * float(rng.uniform(0.0, 2.0))
        h = float(rng.choice([1e-1, 1e-3, 1e-6])) * float(rng.uniform(0.5, 2.0))
        if rng.uniform() < 0.2:
            h = np.spacing(t) * float(rng.choice([0.25, 0.5, 1.0, 2.0]))  # time stalls or barely moves
        times = _step_times(t, h)
        end = float(times[-1])  # the last step's end: the horizon one step past the chunk
        inside = float(times[int(rng.integers(1, len(times)))])
        for horizon in (math.inf, end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf),
                        float(times[-2]) + 1e-12, inside, inside + 0.5 * h, t):
            for last_time in (t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf),
                              float(times[0]), -1.0):
                cases.append((t, last_time, horizon, h))
    cases += [(-0.5, -0.5, 10.0, 1e-3), (-1e-3, -1.0, 1.0, 1e-3), (2.0, 2.0, 2.0 + 1e-3, 1e-3)]
    return cases


def test_chunk_time_shortcut_matches_the_plain_vector_test():
    chunk = _Chunk(AffineDynamics.zero(1), Condition(), (), (), 1.0, Integrator.HEUN)
    x = np.zeros(1)
    for t, last_time, horizon, h in _time_cases(19):
        chunk.h = h  # the time tests read only h
        k, times, states = _advance(chunk, x, t, last_time, horizon)
        want_k, want_times = _plain_time_steps(t, last_time, horizon, h)
        assert k == want_k and len(states) == k, (t, last_time, horizon, h)
        assert np.array_equal(times, want_times), (t, last_time, horizon, h)
