import dataclasses
import importlib
import math
import warnings

import numpy as np
import pytest

from hyra.corpus import build_bouncing_ball, build_linswitch, build_platoon, build_tank
from hyra.errors import HyraError, InitOutsideInvariant, NonFiniteFlowpipe, StepTooLarge
from hyra.expressions import format_number, parse_condition
from hyra.ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    InitialCondition,
    LinearConstraint,
    Location,
    ModelBundle,
    ReachSettings,
    VariableTable,
)
from hyra.reach import (
    Discretization,
    PhiTables,
    ReachResult,
    ReachStats,
    Segments,
    Task,
    Termination,
    Verdict,
    check_safety,
    discretize,
    flowpipe,
    jump_successors,
    reach,
    safety_margin,
    segments_to_csv,
)
from hyra.sets import (
    DEFAULT_ORDER_CAP,
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
from support import (
    GENERATED_SEEDS, WIDE_BOXES, box_contains, coupled_invariant_bundle, emptied_jump_bundle, generated_bundle,
    group_error_bundle, late_entry_bundle, merge_overflow_bundle, reference_reach, reset_jump_bundle, revisit_bundle,
    sample_zonotope, simulation_inside_flowpipe, wide_box_bundle, with_leftover_tail,
)

reach_module = importlib.import_module("hyra.reach")

GRAVITY = 9.81


def decay_bundle(step: float, horizon: float = 1.0) -> ModelBundle:
    table = VariableTable(("x",))
    dyn = AffineDynamics([[-1.0]], np.zeros((1, 0)), [0.0])
    automaton = HybridAutomaton("decay", table, (Location("flow", Condition(), dyn),), ())
    settings = ReachSettings(horizon, step, 0, None, None, False)
    return ModelBundle(automaton, settings, InitialCondition("flow", Box([1.0], [1.0])))


def frozen_location(n: int = 2) -> Location:
    return Location("still", Condition(), AffineDynamics.zero(n))


# ---------------------------------------------------------------------------
# discretize


def test_discretize_frozen_dynamics_is_exact():
    x0 = Box([0.0, 1.0], [1.0, 2.0]).to_zonotope()
    dyn = AffineDynamics.zero(2)
    disc = Discretization(dyn, None, 0.1, PhiTables(dyn.a, 0.1))
    omega, alpha = discretize(disc, x0)
    v_set, phi = disc.v_set, disc.phi
    assert np.array_equal(box_hull(omega).lo, [0.0, 1.0])
    assert np.array_equal(box_hull(omega).hi, [1.0, 2.0])
    assert not v_set.center.any() and v_set.order == 0
    assert np.array_equal(phi, np.eye(2))
    assert alpha == 0.0


@pytest.mark.parametrize("step", [0.1, 0.01])
def test_discretize_decay_encloses_first_interval(step):
    dyn = AffineDynamics([[-1.0]], np.zeros((1, 0)), [0.0])
    omega, _ = discretize(Discretization(dyn, None, step, PhiTables(dyn.a, step)), Box([1.0], [1.0]).to_zonotope())
    box = box_hull(omega)
    assert box.lo[0] <= math.exp(-step)
    assert box.hi[0] >= 1.0


def test_discretize_free_fall_contains_analytic_states():
    # ball dynamics restricted to one ball: x' = v, v' = -g
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, -GRAVITY])
    step = 0.01
    x0 = 10.1
    omega, _ = discretize(Discretization(dyn, None, step, PhiTables(dyn.a, step)),
                          Box([x0, 0.0], [x0, 0.0]).to_zonotope())
    box = box_hull(omega)
    for t in (0.0, step / 2.0, step):
        state = np.array([x0 - 0.5 * GRAVITY * t * t, -GRAVITY * t])
        assert box_contains(box, state, slack=1e-12)


def test_discretize_step_too_large():
    # ||A|| so extreme that even maximal sub-stepping cannot discretize it
    dyn = AffineDynamics([[0.0, 1e5], [-1e5, 0.0]], np.zeros((2, 0)), [0.0, 0.0])
    with pytest.raises(StepTooLarge):
        discretize(Discretization(dyn, None, 1.0, PhiTables(dyn.a, 1.0)), Box([1.0, 0.0], [1.0, 0.0]).to_zonotope())


def discretize_with_checked_boxes(dyn, x0, input_box, step):
    """The sub-step loop with every bloat and input box built as a public ``Box``.

    The reference for ``discretize``: same arithmetic, but each per-step box
    goes through ``Box(...).to_zonotope()`` and its checks.
    """
    a = dyn.a
    delta = float(np.linalg.norm(a, np.inf))
    u_c, mu0 = dyn.c, 0.0  # the constant drift B u_center + c, the input radius bound
    if dyn.m and input_box is not None:
        u_c, mu0 = dyn.b @ input_box.center + dyn.c, float(np.max(np.abs(dyn.b) @ input_box.radius))
    n = a.shape[0]
    substeps = 1
    while substeps < 1 << 16 and (step / substeps) * delta > 0.5:
        substeps *= 2
    tau = step / substeps
    phi, phi1 = exp_with_integral(a, step)
    v_center = phi1 @ u_c
    if mu0 == 0.0:
        beta = 0.0
    elif delta > 0.0:
        beta = math.expm1(step * delta) / delta * mu0
    else:
        beta = step * mu0
    v_set = Zonotope(v_center, np.diag(np.full(n, beta))[:, np.full(n, beta) > 0])
    phi_tau, phi1_tau = (phi, phi1) if substeps == 1 else exp_with_integral(a, tau)
    drift_tau = phi1_tau @ u_c
    curvature = math.expm1(tau * delta) - tau * delta
    if delta > 0.0:
        beta_tau = math.expm1(tau * delta) / delta * mu0
        drift_curv = 2.0 * curvature / delta * float(np.max(np.abs(u_c)))
    else:
        beta_tau = tau * mu0
        drift_curv = 0.0
    alpha0 = 2.0 * curvature * box_hull(x0).sup_norm() + drift_curv
    omega = None
    current = x0
    for _ in range(substeps):
        alpha = 2.0 * curvature * box_hull(current).sup_norm() + drift_curv
        nxt = translate(linear_map(phi_tau, current), drift_tau)
        if beta_tau > 0.0:
            nxt = minkowski_sum(nxt, Box(np.full(n, -beta_tau), np.full(n, beta_tau)).to_zonotope())
        chord = hull_zonotope(current, nxt)
        bloat = alpha + beta_tau
        if bloat > 0.0:
            chord = minkowski_sum(chord, Box(np.full(n, -bloat), np.full(n, bloat)).to_zonotope())
        omega = chord if omega is None else hull_zonotope(omega, chord)
        omega = reduce_order(omega)
        current = reduce_order(nxt)
    return omega, v_set, phi, alpha0 + beta_tau, substeps


def compare_discretize_with_reference(disc, x0):
    """``discretize`` against the checked-box loop; returns (omega, ref_omega, substeps).

    V, Phi and alpha must match byte for byte on every call, and so must
    Omega0 when one sub-step suffices.
    """
    omega, alpha = discretize(disc, x0)
    v_set, phi = disc.v_set, disc.phi
    ref_omega, ref_v, ref_phi, ref_alpha, substeps = discretize_with_checked_boxes(
        disc.dyn, x0, disc.input_box, disc.step)
    pairs = [(v_set.center, ref_v.center), (v_set.generators, ref_v.generators), (phi, ref_phi)]
    if substeps == 1:
        pairs += [(omega.center, ref_omega.center), (omega.generators, ref_omega.generators)]
    for got, want in pairs:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.float64(alpha).tobytes() == np.float64(ref_alpha).tobytes()
    return omega, ref_omega, substeps


def exact_states(dyn, x0: Zonotope, input_box, step: float, seed: int) -> np.ndarray:
    """Exact states on a grid over [0, step] from vertices and seeded points of x0.

    Each state is e^(A t) x + (int_0^t e^(A s) ds)(B u + c) under a constant
    input u: a corner of the input box or a seeded draw from it. The
    vertices are, per time and axis, the ones that extremize that axis.
    """
    rng = np.random.default_rng(seed)
    if input_box is None or dyn.m == 0:
        drives = dyn.c[None, :]
    else:
        corners = np.array(np.meshgrid(*zip(input_box.lo, input_box.hi))).reshape(dyn.m, -1).T
        draws = rng.uniform(input_box.lo, input_box.hi, size=(4, dyn.m))
        drives = np.vstack([corners, draws]) @ dyn.b.T + dyn.c
    states = []
    for t in np.linspace(0.0, step, 9):
        phi_t, phi1_t = exp_with_integral(dyn.a, float(t))
        signs = np.sign(phi_t @ x0.generators)
        starts = np.vstack([x0.center + signs @ x0.generators.T, x0.center - signs @ x0.generators.T,
                            sample_zonotope(x0, 8, int(rng.integers(1 << 30)))])
        states.append(((starts @ phi_t.T)[:, None, :] + (drives @ phi1_t.T)[None, :, :]).reshape(-1, dyn.a.shape[0]))
    return np.vstack(states)


def assert_discretize_encloses_the_flow_inside_the_reference(disc, x0, seed):
    """Sub-stepped ``discretize``: box(Omega0) inside the checked loop's, exact states inside Omega0."""
    omega, ref_omega, substeps = compare_discretize_with_reference(disc, x0)
    assert substeps > 1
    box, ref_box = box_hull(omega), box_hull(ref_omega)
    assert np.all(ref_box.lo <= box.lo) and np.all(box.hi <= ref_box.hi)
    states = exact_states(disc.dyn, x0, disc.input_box, disc.step, seed)
    slack = 1e-9 * np.maximum(1.0, np.abs(states))
    assert np.all(box.lo - slack <= states) and np.all(states <= box.hi + slack)


CORPUS_BUILDS = (build_bouncing_ball, build_tank, build_linswitch, build_platoon)


def recorded_calls(name: str, build, tail: float = 0.0) -> list:
    """Arguments of every call to ``reach.<name>`` while reaching a corpus model,
    with a leftover tail (``with_leftover_tail``) when ``tail`` > 0."""
    bundle = with_leftover_tail(build(), tail) if tail else build()
    calls = []
    original = getattr(reach_module, name)

    def recorder(*args):
        calls.append(args)
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach_module, name, recorder)
        reach(bundle)
    return calls


def test_the_order_cap_reduces_each_linswitch_chord_and_no_other_shipped_one():
    # each of linswitch4's six chord Omega0 zonotopes has 21 generators, one past the cap
    chords = [z for (z,) in recorded_calls("reduce_order", build_linswitch)]
    assert [z.order for z in chords] == [DEFAULT_ORDER_CAP + 1] * 6
    assert all(reduce_order(z).order == DEFAULT_ORDER_CAP for z in chords)
    # the ball's and tank3's chords stay within the cap, so their reduction returns them as they are
    for build in (build_bouncing_ball, build_tank):
        calls = recorded_calls("reduce_order", build)
        assert calls and all(reduce_order(z) is z for (z,) in calls)


@pytest.mark.parametrize("tail", [0.0, 0.37], ids=["shipped", "leftover-tail"])
@pytest.mark.parametrize("build", CORPUS_BUILDS[:3], ids=lambda b: b.__name__[6:])
def test_discretize_equals_the_checked_box_loop_on_every_corpus_call(build, tail):
    calls = recorded_calls("discretize", build, tail)
    assert len(calls) > 1  # the initial set and successor inits
    assert all(compare_discretize_with_reference(*args)[2] == 1 for args in calls)
    # every ball flowpipe ends at the ground before the horizon, so it has no tail
    step = build().settings.step
    assert any(disc.step != step for disc, _ in calls) == (tail > 0.0 and build is not build_bouncing_ball)


@pytest.mark.parametrize("tail", [0.0, 0.37], ids=["shipped", "leftover-tail"])
def test_sub_stepped_discretize_encloses_the_flow_on_platoon_calls(tail):
    calls = recorded_calls("discretize", build_platoon, tail)
    assert len(calls) > 1
    for seed, (disc, x0) in enumerate(calls):
        assert_discretize_encloses_the_flow_inside_the_reference(disc, x0, seed)
    assert any(disc.step != build_platoon().settings.step for disc, _ in calls) == (tail > 0.0)


def test_sub_stepped_discretize_encloses_the_flow_on_random_systems_with_inputs():
    rng = np.random.default_rng(8128)
    compared = 0
    while compared < 12:
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        a = rng.uniform(-3.0, 3.0, size=(n, n))
        dyn = AffineDynamics(a, rng.uniform(-1.0, 1.0, size=(n, m)), rng.uniform(-1.0, 1.0, size=n))
        u_lo = rng.uniform(-0.2, 0.0, size=m)
        input_box = Box(u_lo, u_lo + rng.uniform(0.0, 0.05, size=m))
        center = rng.uniform(-1.0, 1.0, size=n)
        x0 = Zonotope(center, rng.uniform(-0.5, 0.5, size=(n, int(rng.integers(1, 30)))))
        step = float(rng.uniform(0.6, 2.0)) / np.linalg.norm(a, np.inf)
        try:
            disc = Discretization(dyn, input_box, step, PhiTables(dyn.a, step))
            assert_discretize_encloses_the_flow_inside_the_reference(disc, x0, compared)
        except StepTooLarge:
            continue
        assert disc.mu0 > 0.0
        compared += 1


def test_sub_stepped_discretize_encloses_the_flow_its_inputs_push_across_sub_steps():
    # eight sub-steps; the bloat of one sub-step (about 0.17) and the initial
    # radius 0.02 stay below what the inputs add up to over the step (0.245)
    dyn = AffineDynamics([[-4.0]], [[1.0]], [0.0])
    assert_discretize_encloses_the_flow_inside_the_reference(
        Discretization(dyn, Box([-1.0], [1.0]), 1.0, PhiTables(dyn.a, 1.0)), Box([-0.02], [0.02]).to_zonotope(), 0)


def test_platoon_flowpipe_is_nowhere_wider_than_with_the_checked_box_loop():
    bundle = build_platoon()
    new = reach(bundle)

    def checked_discretize(disc, x0):
        omega, _, _, alpha, _ = discretize_with_checked_boxes(disc.dyn, x0, disc.input_box, disc.step)
        return omega, alpha

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach_module, "discretize", checked_discretize)
        ref = reach(bundle)
    assert np.array_equal(new.segments.time_lo, ref.segments.time_lo)
    assert np.array_equal(new.segments.time_hi, ref.segments.time_hi)
    new_width, ref_width = new.segments.hi - new.segments.lo, ref.segments.hi - ref.segments.lo
    assert np.all(new_width <= ref_width)
    assert np.median(new_width) < np.median(ref_width)


def test_discretize_overflow_is_a_non_finite_flowpipe():
    location = build_platoon().automaton.resolved.locations[0]
    box = Box(np.full(18, 1e306), np.full(18, 5e306))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="floating-point range"):
            discretize(Discretization(location.dynamics, None, 0.02, PhiTables(location.dynamics.a, 0.02)),
                       box.to_zonotope())



def test_an_input_set_out_of_range_is_a_non_finite_flowpipe():
    # x' = x + 0.8e308 from around its rest point -0.8e308: the sub-step boxes
    # and their hull are floats, V's center (e^2 - 1) * 0.8e308 is not
    dyn = AffineDynamics([[1.0]], np.zeros((1, 0)), [0.8e308])
    disc = Discretization(dyn, None, 2.0000004, PhiTables(dyn.a, 2.0000004))
    assert disc.substeps == 8 and not np.isfinite(disc.v_set.center).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="first-interval enclosure over a step of 2.0000004 left the"):
            discretize(disc, Box([-0.8e308 - 0.2e307], [-0.8e308 + 0.2e307]).to_zonotope())


def test_input_bound_overflow_is_a_non_finite_flowpipe():
    # (e^(step ||A||) - 1) / ||A|| for ||A|| = 1000 over a step of 1 is past
    # the float range; sub-stepping bounds only tau ||A||
    dyn = AffineDynamics(-1000.0 * np.eye(1), [[1.0]], [0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="input bound over a step of 1 left the floating-point"):
            discretize(Discretization(dyn, Box([0.0], [0.1]), 1.0, PhiTables(dyn.a, 1.0)),
                       Box([1.0], [1.0]).to_zonotope())

# ---------------------------------------------------------------------------
# flowpipe


def test_flowpipe_frozen_dynamics_identical_segments():
    init = Box([0.0, 0.0], [1.0, 1.0])
    pipe = flowpipe(frozen_location(), [Task("still", init, 0.0, 0.0)], None, 0.1, 1.0, discretized={})
    assert len(pipe.segments) == 10
    first = pipe.segments[0].box()
    for seg in pipe.segments:
        assert np.array_equal(seg.box().lo, first.lo)
        assert np.array_equal(seg.box().hi, first.hi)
    assert pipe.segments[0].time_lo == 0.0
    assert pipe.segments[-1].time_hi == pytest.approx(1.0)


def test_flowpipe_decay_box_at_one_second():
    bundle = decay_bundle(1e-3)
    result = reach(bundle)
    seg = [s for s in result.segments if s.time_lo <= 1.0 <= s.time_hi][-1]
    box = seg.box()
    assert box.lo[0] <= math.exp(-1.0) <= box.hi[0]
    assert box.hi[0] - box.lo[0] <= 0.01


def test_flowpipe_truncates_at_invariant_exit():
    bundle = build_bouncing_ball()
    automaton = bundle.automaton.resolved
    pipe = flowpipe(
        automaton.location("always"), [Task("always", bundle.initial.box, 0.0, 0.0)], None, 0.01, 40.0,
        discretized={},
    )
    # no retained segment lies entirely below ground
    for seg in pipe.segments:
        assert seg.box().hi[0] >= 0.0
    # the pipe dies shortly after the latest possible first impact
    latest_impact = math.sqrt(2 * 10.2 / GRAVITY)
    assert pipe.segments[-1].time_hi <= latest_impact + 0.03
    assert pipe.segments[-1].time_hi >= latest_impact - 0.01


def ball_below_ground() -> ModelBundle:
    below_ground = Box([-1.0, 0.0, 5.0, 0.0], [-0.5, 0.0, 5.0, 0.0])
    return dataclasses.replace(build_bouncing_ball(), initial=InitialCondition("always", below_ground))


def wide_box_large_coefficient() -> ModelBundle:
    """x in [-1e300, 1e300] in a, whose invariant 3e22 x <= 1e300 reads 3e22 * 1e300 past the float range."""
    location = Location("a", Condition((LinearConstraint([3e22], "<=", 1e300),)), AffineDynamics.zero(1))
    automaton = HybridAutomaton("wide", VariableTable(("x",)), (location,), ())
    return ModelBundle(automaton, ReachSettings(1.0, 0.1, 0), InitialCondition("a", Box([-1e300], [1e300])))


@pytest.mark.parametrize("make", [ball_below_ground, wide_box_large_coefficient], ids=["ball", "wide-box"])
def test_reach_rejects_an_initial_set_outside_its_invariant(make):
    bundle = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning too
        with pytest.raises(InitOutsideInvariant) as raised:
            reach(bundle)
    assert str(raised.value) == f"initial set of location {bundle.initial.location!r} is not inside its invariant"


@pytest.mark.parametrize("make, verdict", [
    (coupled_invariant_bundle, Verdict.SAFE_PROVED),
    (lambda: generated_bundle(193), Verdict.POSSIBLY_UNSAFE),
], ids=["coupled-invariant", "generated-193"])
def test_only_the_initial_set_is_tested_against_its_invariant(make, verdict):
    # a clamped successor box may poke out of a multi-variable invariant; the flowpipe's clamp cuts it
    bundle = make()
    result = reach(bundle)
    assert (result.verdict, result.stats.max_depth) == (verdict, 1)
    checked, violations, _ = simulation_inside_flowpipe(bundle, result, 20, 0)
    assert checked > 0 and violations == 0


def coupled_location() -> Location:
    """x + y <= 1, y >= 0.5 and x - y/2 <= 0.4: a clamp pass over these rows can tighten a box it clamped."""
    rows = (LinearConstraint([1.0, 1.0], "<=", 1.0), LinearConstraint([0.0, 1.0], ">=", 0.5),
            LinearConstraint([1.0, -0.5], "<=", 0.4))
    return Location("q", Condition(rows), AffineDynamics([[0.3, 0.7], [0.2, -0.5]], np.zeros((2, 0)), [0.7, 0.0]))


@pytest.mark.parametrize("location, box, step, horizon", [
    (build_bouncing_ball().automaton.resolved.location("always"), build_bouncing_ball().initial.box, 0.01, 40.0),
    (coupled_location(), Box([-0.14, 0.58], [-0.12, 0.7]), 0.05, 1.0),
], ids=["one-variable-rows", "coupled-rows"])
def test_a_flowpipe_group_equals_one_call_per_task(location, box, step, horizon):
    # entries at different times, with and without an entry window, one at the horizon (no rows)
    tasks = [Task(location.name, box, entry, window)
             for entry, window in ((0.0, 0.0), (0.1, 0.25), (horizon, 0.1), (0.3, 0.0), (0.05, 0.031))]
    group = flowpipe(location, tasks, None, step, horizon, 1, discretized={})
    alone = [flowpipe(location, [task], None, step, horizon, 1, discretized={}) for task in tasks]
    for table in ("segments", "raw"):
        got, want = getattr(group, table), Segments.concat([getattr(pipe, table) for pipe in alone])
        for column in ("time_lo", "time_hi", "lo", "hi", "depth"):
            assert getattr(got, column).tobytes() == getattr(want, column).tobytes()
        assert got.location.tolist() == want.location.tolist()
    assert group.tasks == tasks and len(alone[2].raw) == 0
    assert group.owner.tolist() == [i for i, pipe in enumerate(alone) for _ in range(len(pipe.raw))]
    assert group.alpha == max(pipe.alpha for pipe in alone)


def first_flowpipe_and_reference(bundle):
    """Raw boxes of the first flowpipe and of the reduced zonotope recurrence.

    The reference is the per-step scheme Omega_(k+1) = reduce_order(Phi
    Omega_k (+) V), clamped to the invariant and stopped at the first empty
    clamp, built here from the set primitives alone.
    """
    automaton = bundle.automaton.resolved
    location = automaton.location(bundle.initial.location)
    s = bundle.settings
    init = bundle.initial.box.to_zonotope()
    input_box = automaton.input_box()
    pipe = flowpipe(location, [Task(location.name, bundle.initial.box, 0.0, 0.0)], input_box, s.step, s.horizon,
                    discretized={})
    disc = Discretization(location.dynamics, input_box, s.step, PhiTables(location.dynamics.a, s.step))
    omega, _ = discretize(disc, init)
    v_set, phi = disc.v_set, disc.phi
    ref_lo, ref_hi = [], []
    current = omega
    for _ in range(int(math.floor(s.horizon / s.step + 1e-9))):
        box = intersect_condition(box_hull(current), location.invariant)
        if box is None:
            break
        ref_lo.append(box.lo)
        ref_hi.append(box.hi)
        current = reduce_order(minkowski_sum(linear_map(phi, current), v_set))
    return pipe.raw, np.array(ref_lo), np.array(ref_hi)


@pytest.mark.parametrize("build", [build_linswitch, build_platoon], ids=["linswitch4", "platoon6"])
def test_wrapping_free_boxes_lie_inside_the_reduced_recurrence(build):
    raw, ref_lo, ref_hi = first_flowpipe_and_reference(build())
    count = min(len(raw), len(ref_lo))
    assert count > 100
    lo, hi = raw.lo[:count], raw.hi[:count]
    ref_lo, ref_hi = ref_lo[:count], ref_hi[:count]
    slack = 1e-12 * np.maximum(1.0, np.maximum(np.abs(ref_lo), np.abs(ref_hi)))
    assert np.all(lo >= ref_lo - slack)
    assert np.all(hi <= ref_hi + slack)
    # dropping the per-step reduction must actually pay off
    assert np.max(hi[-1] - lo[-1]) < np.max(ref_hi[-1] - ref_lo[-1])


def test_wrapping_free_boxes_equal_the_recurrence_bitwise_without_dynamics():
    # tank3 flows are pure drift (A = 0): Phi is the identity, nothing is
    # ever reduced, and the center recurrence is shared, so every box matches
    raw, ref_lo, ref_hi = first_flowpipe_and_reference(build_tank())
    assert len(ref_lo) > 0
    assert np.array_equal(raw.lo[:len(ref_lo)], ref_lo)
    assert np.array_equal(raw.hi[:len(ref_hi)], ref_hi)


def box_chunks_by_recurrence(phi, z0: Zonotope, v_set: Zonotope, steps: int):
    """The reference for ``_box_chunks``: centers by c_(k+1) = Phi c_k + c_V, one step at a time.

    Returns (centers, radii, after) over all ``steps``; the radii are the
    power products of the kernel, in its order.
    """
    n = phi.shape[0]
    center, gens, inputs = z0.center, z0.generators, v_set.generators
    input_radius = np.zeros(n)
    powers = np.empty((reach_module._CHUNK + 1, n, n))
    powers[0] = np.eye(n)
    for j in range(reach_module._CHUNK):
        powers[j + 1] = phi @ powers[j]
    centers, radii = [], []
    for k in range(0, steps, reach_module._CHUNK):
        size = min(reach_module._CHUNK, steps - k)
        for j in range(size):
            centers.append(center)
            center = phi @ center + v_set.center
        radius = np.abs(powers[:size] @ gens).sum(axis=2)
        if inputs.shape[1]:
            running = input_radius + np.cumsum(np.abs(powers[:size] @ inputs).sum(axis=2), axis=0)
            radius += np.vstack([input_radius, running[:-1]])
            input_radius = running[-1]
            inputs = powers[size] @ inputs
        gens = powers[size] @ gens
        radii.append(radius)
    return np.array(centers), np.vstack(radii), (center, gens, input_radius)


def box_chunks(phi, z0: Zonotope, v_set: Zonotope, steps: int):
    """``_box_chunks`` on the tables of (phi, v_set): (lo, hi, after) over all ``steps``."""
    chunks = list(reach_module._box_chunks(reach_module._kernel(reach_module._powers(phi), v_set), z0, steps))
    return np.concatenate([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks]), chunks[-1][2]


def random_recurrence(rng, n: int, identity: bool):
    """(Phi, Z_0, V) of a seeded system x' = A x + B u + c with u in a box, over a seeded step."""
    a = np.zeros((n, n)) if identity else rng.uniform(-1.0, 1.0, size=(n, n))
    dyn = AffineDynamics(a, rng.uniform(-1.0, 1.0, size=(n, 2)), rng.uniform(-1.0, 1.0, size=n))
    u_lo = rng.uniform(-0.2, 0.0, size=2)
    step = float(rng.uniform(0.001, 0.05))
    disc = Discretization(dyn, Box(u_lo, u_lo + 0.05), step, PhiTables(a, step))
    z0 = Zonotope(rng.uniform(-2.0, 2.0, size=n), rng.uniform(-0.1, 0.1, size=(n, int(rng.integers(1, 6)))))
    return disc.phi, z0, disc.v_set


@pytest.mark.parametrize("steps", [1, 64, 65, 200])
def test_box_chunks_equal_the_recurrence_bitwise_at_the_identity(steps):
    rng = np.random.default_rng(steps)
    for n in (1, 3, 5):
        phi, z0, v_set = random_recurrence(rng, n, identity=True)
        assert np.array_equal(phi, np.eye(n))
        lo, hi, after = box_chunks(phi, z0, v_set, steps)
        centers, radii, want_after = box_chunks_by_recurrence(phi, z0, v_set, steps)
        for got, want in [(lo, centers - radii), (hi, centers + radii), *zip(after, want_after)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_box_chunks_sum_the_centers_of_the_recurrence_and_keep_its_radii():
    # two runs per system: from a point without input generators the boxes
    # are the centers; with the centers at zero they are the radii
    rng = np.random.default_rng(6007)
    for _ in range(40):
        n, steps = int(rng.integers(1, 7)), int(rng.integers(1, 300))
        phi, z0, v_set = random_recurrence(rng, n, identity=False)
        centers, radii, _ = box_chunks_by_recurrence(phi, z0, v_set, steps)
        point, drift = Box(z0.center, z0.center).to_zonotope(), Box(v_set.center, v_set.center).to_zonotope()
        lo, hi, _ = box_chunks(phi, point, drift, steps)
        assert lo.tobytes() == hi.tobytes()
        assert np.all(np.abs(lo - centers) <= 1e-13 * np.abs(centers).max())  # relative to the run's scale
        zero = np.zeros(n)
        lo, hi, _ = box_chunks(phi, Zonotope(zero, z0.generators), Zonotope(zero, v_set.generators), steps)
        assert hi.tobytes() == radii.tobytes() and (-lo).tobytes() == radii.tobytes()


def test_each_location_is_discretized_once_per_reach_call():
    bundle = build_tank()
    settings = dataclasses.replace(bundle.settings, horizon=15.0, max_jumps=24)
    bundle = ModelBundle(bundle.automaton, settings, bundle.initial)
    calls = {"exp_with_integral": 0, "discretize": []}

    def count_exp(*args):
        calls["exp_with_integral"] += 1
        return exp_with_integral(*args)

    def record_discretize(disc, x0):
        calls["discretize"].append(disc)
        return discretize(disc, x0)

    records = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach_module, "exp_with_integral", count_exp)
        patch.setattr(reach_module, "discretize", record_discretize)
        for _ in range(2):  # nothing outlives a call: the second discretizes afresh
            calls.update(exp_with_integral=0, discretize=[])
            result = reach(bundle)
            full = {id(d): d for d in calls["discretize"] if d.step == settings.step}
            tails = [d for d in calls["discretize"] if d.step != settings.step]
            # one sub-step everywhere, so one exp_with_integral per distinct (A, step),
            # tail steps included; A = 0 in every tank location and there is no tail
            assert all(d.substeps == 1 for d in calls["discretize"])
            assert len(full) == len(set(result.segments.location)) > 1
            assert result.stats.flowpipes > len(full)
            distinct = {(d.step, d.dyn.a.tobytes()) for d in calls["discretize"]}
            assert calls["exp_with_integral"] == len(distinct) == 1 and not tails
            records.append(full)
    assert not set(records[0]) & set(records[1])


def test_linswitch_computes_one_exponential_per_location():
    # four modes with four distinct A, one sub-step each
    bundle = build_linswitch()
    calls = recorded_calls("exp_with_integral", build_linswitch)
    matrices = {loc.dynamics.a.tobytes() for loc in bundle.automaton.resolved.locations}
    assert len(calls) == len(matrices) == 4


def shared_a_bundle(scale: float) -> ModelBundle:
    """Two locations whose flows are ``scale`` times x' = A x + c with one A and
    different c (and B); ``a`` jumps to ``b`` at x >= 1."""
    from hyra.ir import ResetMap, Transition

    a = scale * np.array([[0.0, 1.0], [-1.0, 0.0]])  # turns about (1.5, 0) in a and (-1, 0) in b
    locations = (Location("a", Condition(), AffineDynamics(a, np.zeros((2, 1)), [0.0, 1.5 * scale])),
                 Location("b", Condition(), AffineDynamics(a, scale * np.array([[1.0], [0.0]]), [0.0, -scale])))
    jump = Transition("a", "b", Condition((LinearConstraint([1.0, 0.0], ">=", 1.0),)), ResetMap.identity(2))
    automaton = HybridAutomaton("shared-a", VariableTable(("x", "y"), ("u",)), locations, (jump,), {"u": (-0.1, 0.1)})
    settings = ReachSettings(2.995, 0.01, 1, None, None, False)  # a tail step of half a step
    return ModelBundle(automaton, settings, InitialCondition("a", Box([0.0, 0.0], [0.5, 0.5])))


@pytest.mark.parametrize("scale", [1.0, 150.0], ids=["one-sub-step", "stiff"])
def test_locations_with_one_a_share_its_tables_and_keep_their_own_drift(scale):
    bundle = shared_a_bundle(scale)
    recorded = []

    def record(disc, x0):
        recorded.append(disc)
        return discretize(disc, x0)

    def own_tables(discretized, a, step):
        return reach_module.PhiTables(a, step)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach_module, "discretize", record)
        shared = reach(bundle)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reach_module, "_tables", own_tables)
        separate = reach(bundle)
    first, second = {id(d): d for d in recorded if d.step == bundle.settings.step}.values()
    assert first.dyn is not second.dyn and first.tables is second.tables
    assert (first.substeps > 1) == (scale > 1.0)
    kernels = [(first.kernel, second.kernel)]
    if first.substeps > 1:
        kernels.append((first.substep_kernel, second.substep_kernel))
    for mine, theirs in kernels:
        assert mine[0] is theirs[0] and mine[1] is theirs[1]  # P_j and P_(j+1) - P_j
        assert not np.array_equal(mine[2], theirs[2])  # P_j c_V
    tails = [d for d in recorded if d.step != bundle.settings.step]
    assert tails and all(d.tables is next(t for t in tails if t.step == d.step).tables for d in tails)
    assert set(shared.segments.location) == {"a", "b"}
    for column in ("time_lo", "time_hi", "lo", "hi", "depth"):
        assert getattr(shared.segments, column).tobytes() == getattr(separate.segments, column).tobytes()
    assert shared.segments.location.tolist() == separate.segments.location.tolist()


def sliding_hull_by_offsets(lo, hi, m, count):
    """The reference for ``_sliding_hull``: one min/max pass per row offset."""
    pad = max(count - lo.shape[0], 0)
    out_lo = np.vstack([lo[:count], np.full((pad, lo.shape[1]), np.inf)])
    out_hi = np.vstack([hi[:count], np.full((pad, hi.shape[1]), -np.inf)])
    src_lo, src_hi = out_lo.copy(), out_hi.copy()
    for d in range(1, min(m, count - 1) + 1):
        np.minimum(out_lo[d:], src_lo[:-d], out=out_lo[d:])
        np.maximum(out_hi[d:], src_hi[:-d], out=out_hi[d:])
    return out_lo, out_hi


def assert_sliding_hull_matches_reference(lo, hi, m, count):
    got = reach_module._sliding_hull(lo, hi, m, count)
    want = sliding_hull_by_offsets(lo, hi, m, count)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (count, lo.shape[1]) and g.tobytes() == w.tobytes()


def test_sliding_hull_equals_the_offset_loop_on_random_shapes():
    rng = np.random.default_rng(4099)
    shapes = [(1, 1, 1), (1, 5, 1), (7, 1, 7), (7, 1, 3), (5, 9, 12), (40, 40, 40), (40, 64, 41)]
    shapes += [(int(rng.integers(1, 80)), int(rng.integers(1, 100)), 0) for _ in range(300)]
    for k, m, count in shapes:
        count = count or int(rng.integers(1, k + m + 1))  # count > K pads, m >= count clips
        n = int(rng.integers(1, 4))
        if rng.uniform() < 0.5:
            lo, hi = rng.normal(size=(k, n)), rng.normal(size=(k, n))
        else:  # ties between equal values and signed zeros
            lo, hi = rng.choice([-1.0, -0.0, 0.0, 2.0], size=(2, k, n))
        assert_sliding_hull_matches_reference(lo, hi, m, count)


@pytest.mark.parametrize("build", CORPUS_BUILDS, ids=lambda b: b.__name__[6:])
def test_sliding_hull_equals_the_offset_loop_on_every_corpus_call(build):
    calls = recorded_calls("_sliding_hull", build)
    assert calls
    for args in calls:
        assert_sliding_hull_matches_reference(*args)


def test_diverging_flowpipe_raises_named_engine_error():
    bundle = build_platoon()
    settings = dataclasses.replace(bundle.settings, horizon=200.0)
    with pytest.raises(NonFiniteFlowpipe, match="floating-point range"):
        reach(ModelBundle(bundle.automaton, settings, bundle.initial))


def test_box_bounds_out_of_range_raise_instead_of_cutting_the_flowpipe():
    # x' = x from [1, 3]: by t = 709 the center 2e^t and radius e^t are still
    # finite, their sum is not; the clamp against x >= 0 would read it as empty
    table = VariableTable(("x",))
    positive = Condition((LinearConstraint([1.0], ">=", 0.0),))
    location = Location("grow", positive, AffineDynamics([[1.0]], np.zeros((1, 0)), [0.0]))
    automaton = HybridAutomaton("grow", table, (location,), ())
    settings = ReachSettings(709.0, 0.1, 0, Condition((LinearConstraint([1.0], "<=", -1.0),)), None, False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="location 'grow' left the floating-point range"):
            reach(ModelBundle(automaton, settings, InitialCondition("grow", Box([1.0], [3.0]))))


def test_tank_guard_windows_on_invariant_boundaries_are_pinned():
    """Shipped tank3, jump bound 16, horizon 10 s: 23 flowpipes, 775 segments.

    Segment boxes read back as center -/+ radius, computed from the clamped
    bounds as Box.to_zonotope does. Where the invariant clamp puts a bound
    exactly on a boundary (x2 <= 0.6), the read-back lands on 0.6 or one
    rounding step either side of it, depending on the other bound. The
    guard on the same boundary (x2 >= 0.6) therefore hits on alternating
    segments, and one crossing splits into several short windows. Reading
    back the raw bounds instead closes them into one window and widens the
    deep-exploration boxes by about 30%; this test pins the current counts
    until that precision trade-off is decided.
    """
    bundle = build_tank()
    settings = dataclasses.replace(bundle.settings, max_jumps=16, horizon=10.0)
    result = reach(ModelBundle(bundle.automaton, settings, bundle.initial))
    assert result.stats.flowpipes == 23
    assert result.stats.segments == 775


# ---------------------------------------------------------------------------
# jump_successors


def ball_pipe_and_transitions():
    bundle = build_bouncing_ball()
    automaton = bundle.automaton.resolved
    pipe = flowpipe(
        automaton.location("always"), [Task("always", bundle.initial.box, 0.0, 0.0)], None, 0.01, 40.0,
        discretized={},
    )
    return pipe, automaton.transitions


def test_ball_bounce_window_resets_velocity():
    pipe, transitions = ball_pipe_and_transitions()
    successors, = jump_successors(pipe, transitions[0])
    assert len(successors) == 1
    box, entry, width = successors[0]
    # hit speeds near sqrt(2 g h0) scaled by the restitution
    slowest = 0.75 * math.sqrt(2 * GRAVITY * 10.0)
    fastest = 0.75 * math.sqrt(2 * GRAVITY * 10.2)
    assert box.lo[1] >= slowest - 0.75 * GRAVITY * width - 0.01
    assert box.hi[1] <= fastest + 0.75 * GRAVITY * width + 0.01
    assert box.lo[0] == box.hi[0] == 0.0  # clamped onto the guard plane
    assert entry == pytest.approx(math.sqrt(2 * 10.0 / GRAVITY), abs=0.02)


def test_disjoint_guard_gives_no_successors():
    pipe, _ = ball_pipe_and_transitions()
    table_n = 4
    coeffs = np.zeros(table_n)
    coeffs[0] = 1.0
    from hyra.ir import ResetMap, Transition

    unreachable = Transition(
        "always", "always", Condition((LinearConstraint(coeffs, ">=", 100.0),)), ResetMap.identity(table_n)
    )
    assert jump_successors(pipe, unreachable) == [[]]


def test_identity_reset_returns_the_clamped_window():
    from hyra.ir import ResetMap, Transition
    from hyra.sets import intersect_condition

    pipe, _ = ball_pipe_and_transitions()
    coeffs = np.zeros(4)
    coeffs[0] = 1.0
    touch = Transition(
        "always", "always", Condition((LinearConstraint(coeffs, "<=", 0.05),)), ResetMap.identity(4)
    )
    successors, = jump_successors(pipe, touch)
    assert successors
    box, _, _ = successors[0]
    agg = None
    for seg in pipe.raw:
        clamped = intersect_condition(seg.box(), touch.guard)
        if clamped is not None:
            agg = clamped if agg is None else agg.hull(clamped)
    assert agg is not None
    assert np.array_equal(box.lo, agg.lo)
    assert np.array_equal(box.hi, agg.hi)


def reference_successors(segments, transition):
    """``jump_successors`` through the public constructors and the n-column clamp formula."""
    rows = transition.guard.halfspaces
    lo, hi, hit = clamp_boxes(segments.lo, segments.hi, rows._replace(axis=(None,) * len(rows.bounds)))
    hits = np.flatnonzero(hit)
    out = []
    for run in np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1) if hits.size else []:
        window = Box(lo[run].min(axis=0), hi[run].max(axis=0))
        zonotope = Zonotope(window.center, np.diag(window.radius)[:, window.radius > 0])
        succ = translate(linear_map(transition.reset.r_matrix, zonotope), transition.reset.r_offset)
        entry = float(segments.time_lo[run[0]])
        out.append((succ, entry, float(segments.time_hi[run[-1]]) - entry))
    return out


def task_rows(segments, rows) -> Segments:
    """The rows of a segment table that the index or mask ``rows`` selects, as a table."""
    return Segments(*(getattr(segments, f)[rows] for f in ("time_lo", "time_hi", "lo", "hi", "location", "depth")))


def guard_runs_across_tasks(pipe, transition) -> int:
    """How many runs of consecutive guard-hitting raw rows of a flowpipe group hold rows of two tasks."""
    _, _, hit = clamp_boxes(pipe.raw.lo, pipe.raw.hi, transition.guard.halfspaces)
    hits = np.flatnonzero(hit)
    runs = np.split(hits, np.flatnonzero(np.diff(hits) > 1) + 1) if hits.size else []
    return sum(len(set(pipe.owner[run].tolist())) > 1 for run in runs)


def build_tank_at_15s_and_24_jumps():
    bundle = build_tank()
    return ModelBundle(bundle.automaton, dataclasses.replace(bundle.settings, horizon=15.0, max_jumps=24),
                       bundle.initial)


def successors_checked_against_the_reference(pipe, transition) -> list:
    """``jump_successors`` of a flowpipe group; each task's successors are checked, bit for bit,
    against the reference on the task's raw rows alone."""
    got = jump_successors(pipe, transition)
    assert len(got) == len(pipe.tasks)
    for position, task_got in enumerate(got):
        want = reference_successors(task_rows(pipe.raw, pipe.owner == position), transition)
        assert len(task_got) == len(want)
        for (box, entry, width), (ref, ref_entry, ref_width) in zip(task_got, want):
            assert (entry, width) == (ref_entry, ref_width) and type(entry) is type(width) is float
            ref = box_hull(ref)
            for side, ref_side in ((box.lo, ref.lo), (box.hi, ref.hi)):
                assert side.tobytes() == ref_side.tobytes()
    return got


@pytest.mark.parametrize("build", [*CORPUS_BUILDS, build_tank_at_15s_and_24_jumps], ids=lambda b: b.__name__[6:])
def test_jump_successors_equal_the_checked_reference_on_every_corpus_call(build):
    # each call takes one group of tasks
    calls = recorded_calls("jump_successors", build)
    found = crossing = 0
    for pipe, transition in calls:
        crossing += guard_runs_across_tasks(pipe, transition)
        found += sum(map(len, successors_checked_against_the_reference(pipe, transition)))
    assert found > 0
    if build is build_tank_at_15s_and_24_jumps:
        assert max(len(pipe.tasks) for pipe, _ in calls) >= 9
        assert crossing >= 1  # a run the owner split cuts in two


def test_jump_successors_equal_the_checked_reference_on_a_made_raw_table():
    # 12 rows of 5 tasks, the third without rows; x >= 0 hits rows 0, 2-4, 6, 7, 10 and 11:
    # a gap after row 0, a run of rows 2-4 that the owner splits after row 3, single-row
    # runs at rows 6 and 7 (an owner change between them) and a run that ends at the last row
    from hyra.ir import ResetMap, Transition
    from hyra.reach import FlowpipeResult

    owner = np.repeat(np.arange(5), [4, 3, 0, 3, 2])
    x_lo = np.array([0.0, -3.0, -0.0, -1.0, 0.5, -2.0, 1e-300, -0.0, -5.0, -4.0, 2.0, -0.25])
    x_hi = np.array([1.0, -1.0, 0.0, 2.0, 1.5, -0.5, 3.0, 0.0, -1.0, -3.5, 2.0, 4.0])
    lo = np.column_stack([x_lo, [-1.0, 0.0, 2.0, -0.0, 1.0, 3.0, -2.0, 0.5, 0.0, 1.0, -1e300, 7.0]])
    hi = np.column_stack([x_hi, [1.0, 0.5, 3.0, 0.0, 1.0, 4.0, 0.0, 0.5, 1.0, 2.0, 1e300, 9.0]])
    times = np.arange(12) * 0.1
    raw = Segments(times, times + 0.1, lo, hi, np.full(12, "a", dtype=object), np.zeros(12, dtype=int))
    pipe = FlowpipeResult(raw, raw, [Task("a", Box([0.0, 0.0], [0.0, 0.0]), 0.0, 0.0)] * 5, owner, 0.0)
    reset = ResetMap([[0.5, -1.0], [2.0, 0.0]], [1.0, -0.0])
    guards = {"hit": [([1.0, 0.0], ">=", 0.0)], "two-variable": [([1.0, 0.0], ">=", 0.0), ([1.0, 1.0], "<=", 8.0)],
              "none": [([1.0, 0.0], ">=", 100.0)]}
    counts = {}
    for name, rows in guards.items():
        transition = Transition("a", "a", Condition(tuple(LinearConstraint(*row) for row in rows)), reset)
        counts[name] = list(map(len, successors_checked_against_the_reference(pipe, transition)))
    assert counts == {"hit": [2, 2, 0, 1, 1], "two-variable": [2, 2, 0, 1, 1], "none": [0] * 5}


def test_segment_bounds_are_stored_as_read_back_from_their_center_and_radius():
    # the bound 0.1 reads back as 0.10000000000000002 and -0.0 as 0.0
    lo, hi = np.array([[0.1], [-0.0]]), np.array([[0.3], [0.0]])
    segments = Segments.from_bounds(np.zeros(2), np.ones(2), lo, hi, "q", 0)
    center, radius = center_radius(lo, hi)
    assert segments.lo.tobytes() == (center - radius).tobytes()
    assert segments.hi.tobytes() == (center + radius).tobytes()
    assert segments.lo.tolist() == [[0.10000000000000002], [0.0]] and not np.signbit(segments.lo).any()


def test_every_box_is_inside_the_condition_true():
    assert reach_module._box_inside_condition(Box([-1e300, 0.0], [1e300, 0.0]), Condition())


@pytest.mark.parametrize("case, a_bounds, b_bounds", [
    ("initial", (-1e308, 1e308), (-1e308, 1e308)),
    ("window", (-0.9e308, 0.9e308), (-0.9e308, 0.95e308)),  # a drifts 0.5e307 up
    ("successor", (-0.9e308, 0.85e308), (-0.99e308, 0.935e308)),  # the reset scales by 1.1
], ids=["initial", "window", "successor"])
def test_box_wider_than_the_largest_float_reaches(case, a_bounds, b_bounds):
    # the initial set, the guard window and the successor have finite bounds
    # farther apart than the largest float; each still has a center and radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reach(wide_box_bundle(case))
    assert (result.verdict, result.first_violation) == (Verdict.SAFE_PROVED, None)
    stats = result.stats
    assert (stats.segments, stats.flowpipes, stats.max_depth, stats.termination) == (10, 2, 1, None)
    segments = result.segments
    for location, (lo, hi) in (("a", a_bounds), ("b", b_bounds)):
        rows = segments.location == location
        assert rows.sum() == 5
        assert segments.lo[rows].min() == pytest.approx(lo, rel=1e-15)
        assert segments.hi[rows].max() == pytest.approx(hi, rel=1e-15)


def test_reset_out_of_range_raises_from_jump_successors():
    bundle = reset_jump_bundle(1e307, 2e307, 20.0)
    pipe = flowpipe(bundle.automaton.locations[0], [Task("a", bundle.initial.box, 0.0, 0.0)], None, 0.1, 0.3,
                    discretized={})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe) as error:
            jump_successors(pipe, bundle.automaton.transitions[0])
    assert str(error.value) == ("successor of the jump 'a' -> 'b' at t=0 left the floating-point range; "
                                "the reset maps the guard set out of range")


@pytest.mark.parametrize("lo, hi, scale", [
    (1e307, 2e307, 20.0),  # the reset overflows the successor's center
    (1e307, 2e307, 10.0),  # the successor is finite, its hull is not
])
def test_reach_raises_on_a_successor_out_of_range_instead_of_dropping_it(lo, hi, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="left the floating-point range"):
            reach(reset_jump_bundle(lo, hi, scale))


def test_tail_segment_out_of_range_raises_instead_of_being_dropped():
    # a finite first-interval enclosure whose box hull overflows: the x0
    # radius is 0.48 * max, the input bloat adds 2e308
    big = np.finfo(float).max
    location = Location("t", Condition((LinearConstraint([1.0], ">=", -big),)),
                        AffineDynamics(np.zeros((1, 1)), np.full((1, 1), 1e10), np.zeros(1)))
    init = Box([-0.48 * big], [0.48 * big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe, match="location 't' left the floating-point range"):
            flowpipe(location, [Task("t", init, 0.0, 0.0)], Box([-1e298], [1e298]), 1.0, 0.5, discretized={})



def test_segment_box_wider_than_the_largest_float_is_stored():
    # the tail box [-1.36e308, 1.36e308] has finite bounds whose difference
    # is past the largest float; its radius is 1.36e308 all the same
    big = np.finfo(float).max
    location = Location("t", Condition((LinearConstraint([1.0], ">=", -big),)),
                        AffineDynamics(np.zeros((1, 1)), np.full((1, 1), 1e10), np.zeros(1)))
    init = Box([-0.48 * big], [0.48 * big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipe = flowpipe(location, [Task("t", init, 0.0, 0.0)], Box([-0.5e298], [0.5e298]), 1.0, 0.5, discretized={})
    segments = pipe.segments
    assert (len(segments), segments.time_lo.tolist(), segments.time_hi.tolist()) == (1, [0.0], [0.5])
    assert segments.hi[0, 0] == -segments.lo[0, 0]
    assert 0.75 * big < segments.hi[0, 0] < big


@pytest.mark.parametrize("lo, hi", [(1e308, np.finfo(float).max), (-np.finfo(float).max, -1e308)],
                         ids=["upper", "lower"])
def test_segment_bound_at_the_largest_float_that_does_not_read_back_raises(lo, hi):
    # center 1.39e308 and radius 0.40e308 are floats, but center + radius rounds to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteFlowpipe) as error:
            Segments.from_bounds(np.array([0.0, 0.1]), np.array([0.1, 0.2]), np.array([[0.0], [lo]]),
                                 np.array([[1.0], [hi]]), "q", 0)
    assert str(error.value) == ("flowpipe of location 'q' left the floating-point range before t=0.2: "
                                "a box does not read back from its center and radius")


def test_segment_bounds_of_the_whole_float_range_read_back():
    big = np.finfo(float).max
    lo, hi = np.array([[-big, 0.0, -big]]), np.array([[big, big, 0.0]])
    segments = Segments.from_bounds(np.zeros(1), np.ones(1), lo, hi, "q", 0)
    assert np.array_equal(segments.lo, lo) and np.array_equal(segments.hi, hi)

# ---------------------------------------------------------------------------
# reach + check_safety


def test_ball_reach_is_safe_for_the_stated_bad_set():
    result = reach(build_bouncing_ball())
    assert result.verdict == Verdict.SAFE_PROVED
    assert result.stats.termination == Termination.JUMP_BOUND_HIT


def test_ball_reach_cannot_prove_tighter_threshold():
    bundle = build_bouncing_ball()
    coeffs = np.zeros(4)
    coeffs[1] = 1.0
    s = bundle.settings
    tighter = ReachSettings(
        s.horizon, s.step, s.max_jumps,
        Condition((LinearConstraint(coeffs, ">=", 10.0),)), s.output_vars, s.fixpoint_check,
    )
    result = reach(ModelBundle(bundle.automaton, tighter, bundle.initial))
    assert result.verdict == Verdict.POSSIBLY_UNSAFE
    assert result.first_violation is not None


def with_forbidden(bundle, text):
    s = bundle.settings
    forbidden = parse_condition(text, bundle.automaton.vars)
    settings = ReachSettings(s.horizon, s.step, s.max_jumps, forbidden, s.output_vars, s.fixpoint_check)
    return ModelBundle(bundle.automaton, settings, bundle.initial)


def test_forbidden_set_is_resolved_with_the_automaton_constants():
    ball = build_bouncing_ball()  # c = 0.75, so 14 - 8*c is 8
    symbolic = reach(with_forbidden(ball, "v >= 14 - 8*c"))
    plain = reach(with_forbidden(ball, "v >= 8"))
    assert plain.verdict == Verdict.POSSIBLY_UNSAFE
    assert symbolic.verdict == plain.verdict
    assert symbolic.first_violation == plain.first_violation


def test_forbidden_set_of_the_wrong_dimension_is_an_engine_error():
    ball = build_bouncing_ball()
    forbidden = Condition((LinearConstraint([0.0, 1.0], ">=", 10.7),))
    bundle = dataclasses.replace(ball, settings=dataclasses.replace(ball.settings, forbidden=forbidden))
    with pytest.raises(HyraError, match="forbidden set: constraint over 2 variables, expected 4"):
        reach(bundle)


def test_fixpoint_check_keeps_a_task_that_enters_before_its_cover():
    # The L1 task from L2 has its box inside that of the earlier L1 task from
    # L0, but enters about 8 s sooner: with the horizon left, x reaches 10.
    result = reach(late_entry_bundle())
    assert result.verdict == Verdict.POSSIBLY_UNSAFE
    assert result.stats.discarded == 0
    assert float(result.segments.hi[:, 0].max()) > 9.9


@pytest.mark.parametrize("fixpoint, flowpipes, discarded, termination", [
    (True, 3, 1, Termination.FIXPOINT_REACHED),
    (False, 4, 0, None),
], ids=["fixpoint", "no-fixpoint"])
def test_fixpoint_check_discards_a_revisit_inside_an_earlier_entry(fixpoint, flowpipes, discarded, termination):
    # the L1 task from L2 enters in [5.5, 5.6], inside the window [0, 10] of
    # the L1 task from L0, with its box inside that task's box
    result = reach(revisit_bundle(fixpoint))
    assert result.verdict == Verdict.SAFE_PROVED
    stats = result.stats
    assert (stats.flowpipes, stats.discarded, stats.termination) == (flowpipes, discarded, termination)


@pytest.mark.parametrize("lo, hi, b_hi", [
    (-0.95e308, 0.8e308, 0.9e308),  # the hull in b spans 1.85e308, past the largest float
    (1e308, 1.5e308, 1.6e308),  # narrow, but 0.5 (lo + hi) would overflow
], ids=["wide", "far-narrow"])
def test_merged_hull_past_the_largest_float_reaches(lo, hi, b_hi):
    # the two successors in b merge into one task whose box has a center and radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = reach(merge_overflow_bundle(lo, hi))
    assert (result.verdict, result.first_violation) == (Verdict.SAFE_PROVED, None)
    stats = result.stats
    assert (stats.segments, stats.flowpipes, stats.discarded, stats.max_depth) == (6, 2, 0, 1)
    segments = result.segments
    assert segments.location.tolist() == ["a"] * 3 + ["b"] * 3
    # every row holds its box, and is no wider than rounding makes it
    for rows, row_hi in ((slice(0, 3), hi), (slice(3, 6), b_hi)):
        assert np.all(segments.lo[rows] <= lo) and np.all(segments.hi[rows] >= row_hi)
        assert segments.lo[rows, 0].tolist() == [pytest.approx(lo, rel=1e-15)] * 3
        assert segments.hi[rows, 0].tolist() == [pytest.approx(row_hi, rel=1e-15)] * 3


@pytest.mark.parametrize("build", CORPUS_BUILDS, ids=lambda b: b.__name__[6:])
def test_intersect_condition_equals_the_public_constructor_on_every_corpus_call(build):
    calls = recorded_calls("intersect_condition", build)
    assert calls
    for box, condition in calls:
        got = intersect_condition(box, condition)
        lo, hi, ok = clamp_boxes(box.lo[None, :], box.hi[None, :], condition.halfspaces)
        if not ok[0]:
            assert got is None
            continue
        want = Box(lo[0], hi[0])
        for side, want_side in ((got.lo, want.lo), (got.hi, want.hi)):
            assert side.tobytes() == want_side.tobytes() and not side.flags.writeable


def test_platoon_exploration_stops_at_the_jump_bound():
    result = reach(build_platoon())
    assert result.stats.max_depth == 2
    assert result.stats.termination == Termination.JUMP_BOUND_HIT
    assert result.stats.covered_time == pytest.approx(12.0)


def test_tank_run_covers_the_horizon():
    result = reach(build_tank())
    assert result.verdict == Verdict.SAFE_PROVED
    intervals = sorted((s.time_lo, s.time_hi) for s in result.segments)
    reached = 0.0
    for lo, hi in intervals:
        if lo <= reached + 1e-9:
            reached = max(reached, hi)
    assert reached == pytest.approx(5.0)


def test_check_safety_on_empty_flowpipe_is_vacuously_safe():
    verdict, offender = check_safety([], Condition())
    assert verdict == Verdict.SAFE_PROVED and offender is None


def test_forbidden_true_flags_the_first_segment():
    bundle = decay_bundle(0.1)
    result = reach(bundle)
    verdict, offender = check_safety(result.segments, Condition())
    assert verdict == Verdict.POSSIBLY_UNSAFE
    assert result.segments[offender].time_lo == 0.0


def test_verdict_consistent_under_shrinking_forbidden():
    bundle = build_bouncing_ball()
    coeffs = np.zeros(4)
    coeffs[1] = 1.0
    result = reach(bundle)
    assert result.verdict == Verdict.SAFE_PROVED
    for bound in (10.8, 11.5, 20.0):  # subsets of v >= 10.7
        verdict, _ = check_safety(result.segments, Condition((LinearConstraint(coeffs, ">=", bound),)))
        assert verdict == Verdict.SAFE_PROVED


def test_equality_forbidden_checked_as_thin_slab():
    bundle = decay_bundle(0.1)
    result = reach(bundle)
    coeffs = np.array([1.0])
    hit, _ = check_safety(result.segments, Condition((LinearConstraint(coeffs, "==", 0.5),)))
    assert hit == Verdict.POSSIBLY_UNSAFE
    miss, _ = check_safety(result.segments, Condition((LinearConstraint(coeffs, "==", 2.0),)))
    assert miss == Verdict.SAFE_PROVED


def test_halving_the_step_never_loosens_the_final_box():
    coarse = reach(decay_bundle(2e-3))
    fine = reach(decay_bundle(1e-3))

    def final_box(result):
        seg = [s for s in result.segments if s.time_lo <= 1.0 <= s.time_hi][-1]
        return seg.box()

    cb, fb = final_box(coarse), final_box(fine)
    assert fb.lo[0] >= cb.lo[0] - 1e-9
    assert fb.hi[0] <= cb.hi[0] + 1e-9


def test_reach_is_bitwise_deterministic():
    first = reach(build_tank())
    second = reach(build_tank())
    assert first.verdict == second.verdict
    assert len(first.segments) == len(second.segments)
    for a, b in zip(first.segments, second.segments):
        assert a.time_lo == b.time_lo and a.time_hi == b.time_hi
        assert a.location == b.location and a.jump_depth == b.jump_depth
        assert np.array_equal(a.lo, b.lo)
        assert np.array_equal(a.hi, b.hi)


def test_random_affine_systems_contain_their_simulations():
    # seeded random continuous systems, no jumps: every dense simulation
    # sample must land in the segment covering its time
    from hyra.simulate import Integrator, SimOptions, sample_initial, simulate

    from support import SegmentIndex

    rng = np.random.default_rng(2718)
    for trial in range(8):
        n = int(rng.integers(1, 4))
        a = rng.uniform(-2.0, 2.0, size=(n, n))
        c = rng.uniform(-1.0, 1.0, size=n)
        center = rng.uniform(-1.0, 1.0, size=n)
        radius = rng.uniform(0.01, 0.3, size=n)
        table = VariableTable(tuple(f"s{i}" for i in range(n)))
        automaton = HybridAutomaton(
            f"rand{trial}",
            table,
            (Location("flow", Condition(), AffineDynamics(a, np.zeros((n, 0)), c)),),
            (),
        )
        bundle = ModelBundle(
            automaton,
            ReachSettings(1.0, 0.01, 0, None, None, False),
            InitialCondition("flow", Box(center - radius, center + radius)),
        )
        result = reach(bundle)
        assert result.segments[-1].time_hi == pytest.approx(1.0)
        index = SegmentIndex(result.segments)
        for x0 in sample_initial(bundle.initial.box, 10, seed=trial):
            traj = simulate(bundle, x0, Integrator.HEUN, SimOptions(step=0.001))
            times = np.asarray(traj.times)
            inside = index.covered(times, traj.states, 1e-6)
            assert inside.all(), f"trial {trial}: escape at t={times[~inside][0]}"


def test_segment_csv_has_per_variable_bounds():
    result = reach(decay_bundle(0.1))
    text = segments_to_csv(result, ("x",))
    lines = text.splitlines()
    assert lines[0] == "time_lo,time_hi,location,jump_depth,lo_x,hi_x"
    assert len(lines) == 1 + len(result.segments)


def _csv_by_format_number(segments, state_vars) -> str:
    """The flowpipe CSV written one ``format_number`` call per value."""
    header = ["time_lo", "time_hi", "location", "jump_depth"]
    header += [f"{side}_{var}" for var in state_vars for side in ("lo", "hi")]
    lines = [",".join(header)]
    for seg in segments:
        box = seg.box()
        cells = [format_number(seg.time_lo), format_number(seg.time_hi), seg.location, str(seg.jump_depth)]
        for lo, hi in zip(box.lo, box.hi):
            cells += [format_number(lo), format_number(hi)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _hand_made_result():
    values = np.array([[-0.0, 1e22, 5e-324, 3.0], [2.0, -7.0, 0.1, -1e-300], [1.5e-5, -2e-7, 1e16, 1e-4]])
    segments = Segments(
        np.array([0.0, 1.0, 2.5e-5]), np.array([1.0, 1e22, 3.0]), values, values + 0.0,  # hi of -0.0 reads 0.0
        np.array(["a", "b", "c"], dtype=object), np.array([0, 2, 1]),
    )
    return ReachResult(segments, Verdict.SAFE_PROVED, ReachStats()), ("w", "x", "y", "z")


def _empty_result():
    empty = np.zeros((0, 2))
    segments = Segments(np.zeros(0), np.zeros(0), empty, empty, np.array([], dtype=object), np.zeros(0, dtype=int))
    return ReachResult(segments, Verdict.SAFE_PROVED, ReachStats()), ("x", "v")


def _corpus_result(build, tail: float = 0.0):
    def make():
        bundle = with_leftover_tail(build(), tail) if tail else build()
        return reach(bundle), bundle.automaton.vars.state_vars
    return make


CORPUS_IDS = ["bouncing-ball", "tank3", "linswitch4", "platoon6"]


@pytest.mark.parametrize("make", [
    _hand_made_result, _empty_result,
    *(_corpus_result(b) for b in CORPUS_BUILDS),
    *(_corpus_result(b, tail=0.37) for b in CORPUS_BUILDS),
], ids=["hand-made", "empty", *CORPUS_IDS, *(f"{m}-leftover-tail" for m in CORPUS_IDS)])
def test_segment_csv_formats_every_value_like_format_number(make):
    result, state_vars = make()
    text = segments_to_csv(result, state_vars)
    assert text == _csv_by_format_number(result.segments, state_vars)
    assert len(text.splitlines()) == 1 + len(result.segments)


def test_segment_csv_hand_made_rows():
    result, state_vars = _hand_made_result()
    lines = segments_to_csv(result, state_vars).splitlines()
    assert lines[1] == "0,1,a,0,0,0,1e+22,1e+22,5e-324,5e-324,3,3"
    assert lines[3] == "2.5e-05,3,c,1,1.5e-05,1.5e-05,-2e-07,-2e-07,1e+16,1e+16,0.0001,0.0001"
    assert segments_to_csv(*_empty_result()) == "time_lo,time_hi,location,jump_depth,lo_x,hi_x,lo_v,hi_v\n"


@pytest.mark.parametrize("build", [build_bouncing_ball, build_tank, build_linswitch, build_platoon])
def test_batched_flowpipe_index_agrees_with_the_scalar_query(build):
    from hyra.simulate import Integrator, SimOptions, sample_initial, simulate

    from support import SegmentIndex

    bundle = build()
    index = SegmentIndex(reach(bundle).segments)
    x0 = sample_initial(bundle.initial.box, 1, seed=0)[0]
    traj = simulate(bundle, x0, Integrator.HEUN, SimOptions(step=bundle.settings.step / 10.0))
    # the run itself and copies pushed off it, so that both answers occur
    answers = []
    for push in (0.0, 0.05, 1e100):  # platoon boxes reach about 1e78
        states = traj.states + push * (1.0 + np.abs(traj.states))
        batched = index.covered(traj.times, states)
        assert batched.tolist() == [index.covers(t, x) for t, x in zip(traj.times, states)]
        answers += batched.tolist()
    assert set(answers) == {True, False}


# ---------------------------------------------------------------------------
# reach by location groups against the task-by-task reference


def sub_box(box: Box, seed: int) -> Box:
    """A seeded sub-box of ``box``: each side 0.8 to 1 times as wide, at a seeded offset."""
    rng = np.random.default_rng(seed)
    width = box.hi - box.lo
    side = rng.uniform(0.8, 1.0, width.shape) * width
    lo = box.lo + rng.uniform(0.0, 1.0, width.shape) * (width - side)
    return Box(lo, np.minimum(lo + side, box.hi))


def deep_bundle(build, seed: int, max_jumps: int, horizon: float | None = None) -> ModelBundle:
    """A corpus model from a seeded sub-box of its initial set, with a raised jump bound."""
    bundle = build()
    settings = dataclasses.replace(bundle.settings, max_jumps=max_jumps,
                                   horizon=bundle.settings.horizon if horizon is None else horizon)
    initial = InitialCondition(bundle.initial.location, sub_box(bundle.initial.box, seed))
    return ModelBundle(bundle.automaton, settings, initial)


REFERENCE_CASES = {
    **dict(zip(CORPUS_IDS, CORPUS_BUILDS)),
    **{f"{name}-leftover-tail": (lambda b=build: with_leftover_tail(b(), 0.37))
       for name, build in zip(CORPUS_IDS, CORPUS_BUILDS)},
    **{f"ball-{jumps}-jumps": (lambda j=jumps: deep_bundle(build_bouncing_ball, j, j)) for jumps in (3, 4, 5)},
    **{f"tank3-{jumps}-jumps-{horizon}s": (lambda j=jumps, h=horizon: deep_bundle(build_tank, j, j, h))
       for jumps, horizon in ((16, 10.0), (19, 12.5), (24, 15.0))},
    "revisit": revisit_bundle,
    "revisit-no-fixpoint": lambda: revisit_bundle(False),
    "late-entry": late_entry_bundle,
    "emptied-jump": emptied_jump_bundle,
    **{f"generated-{seed}": (lambda s=seed: generated_bundle(s)) for seed in GENERATED_SEEDS},
    "merge-overflow-wide": merge_overflow_bundle,
    "merge-overflow-far-narrow": lambda: merge_overflow_bundle(1e308, 1.5e308),
    **{f"wide-box-{case}": (lambda c=case: wide_box_bundle(c)) for case in WIDE_BOXES},
    "reset-jump-center-overflow": lambda: reset_jump_bundle(1e307, 2e307, 20.0),
    "reset-jump-hull-overflow": lambda: reset_jump_bundle(1e307, 2e307, 10.0),
    "group-error": group_error_bundle,
    "coupled-invariant": coupled_invariant_bundle,
    "generated-193": lambda: generated_bundle(193),
}


def assert_same_reach(got: ReachResult, want: ReachResult) -> None:
    for column in ("time_lo", "time_hi", "lo", "hi", "depth"):
        a, b = getattr(got.segments, column), getattr(want.segments, column)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), column  # sign bits too
    assert got.segments.location.tolist() == want.segments.location.tolist()
    assert (got.verdict, got.first_violation) == (want.verdict, want.first_violation)
    assert (got.margin, got.margin_segment) == (want.margin, want.margin_segment)
    got_stats, want_stats = dataclasses.asdict(got.stats), dataclasses.asdict(want.stats)
    del got_stats["wall_time"], want_stats["wall_time"]
    assert got_stats == want_stats


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_reach_equals_the_task_by_task_reference(case):
    bundle = REFERENCE_CASES[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = reference_reach(bundle)
        except HyraError as error:
            # the first error of a level is that of its earliest failing task
            with pytest.raises(HyraError) as raised:
                reach(bundle)
            assert (type(raised.value), str(raised.value)) == (type(error), str(error))
            return
        got = reach(bundle)
    assert_same_reach(got, want)
    # a positive margin separates every box from the forbidden set
    assert not (got.margin is not None and got.margin > 0 and got.verdict == Verdict.POSSIBLY_UNSAFE)


def test_a_jump_successor_its_target_invariant_empties_starts_no_flowpipe():
    result = reach(emptied_jump_bundle())
    stats = result.stats
    assert result.verdict == Verdict.SAFE_PROVED
    assert (stats.segments, stats.flowpipes, stats.max_depth, stats.termination) == (200, 1, 0, None)
    assert set(result.segments.location.tolist()) == {"a"}


def test_the_group_error_case_raises_the_earlier_task_error():
    # both tasks of the depth-1 group fail; the earlier one in its successor step
    with pytest.raises(NonFiniteFlowpipe, match="successor of the jump 'b' -> 'c' at t=0"):
        reach(group_error_bundle())


@pytest.mark.parametrize("build, margin, time_lo, depth", [
    (build_bouncing_ball, 0.027707551960229893, 1.42, 1),
    (build_tank, 0.879999999, 0.0, 0),  # the forbidden equality is a slab of half-width 1e-9
    (build_linswitch, None, None, None),  # no forbidden set
    (build_platoon, -1.0636882186424565e73, 11.98, 2),
], ids=CORPUS_IDS)
def test_verdict_margin_per_corpus_model(build, margin, time_lo, depth):
    result = reach(build())
    assert result.margin == margin
    if margin is None:
        assert result.margin_segment is None
        return
    index = result.margin_segment
    assert (float(result.segments.time_lo[index]), int(result.segments.depth[index])) == (time_lo, depth)
    # a positive margin separates every box from the forbidden set
    assert (margin > 0) == (result.verdict == Verdict.SAFE_PROVED)


def test_ball_margin_is_the_gap_below_the_forbidden_speed():
    # the forbidden set is v >= 10.7: a box's value is 10.7 minus its largest v
    result = reach(build_bouncing_ball())
    v_hi = result.segments.hi[:, 1]
    assert result.margin == 10.7 - v_hi.max()
    assert result.margin_segment == int(np.argmax(v_hi))
    assert float(v_hi.max()) == pytest.approx(10.672, abs=5e-4)


def test_margin_of_the_forbidden_set_true_is_minus_infinity():
    result = reach(decay_bundle(0.1))
    assert safety_margin(result.segments, Condition()) == (-math.inf, 0)
    assert safety_margin(result.segments, None) == (None, None)
