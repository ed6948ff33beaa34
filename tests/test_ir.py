import dataclasses

import numpy as np
import pytest

from hyra.corpus import BenchmarkId, build, build_bouncing_ball, build_linswitch, build_platoon, build_tank
from hyra.errors import UnknownSymbol
from hyra.ir import (
    MAX_STEP_COUNT,
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
    validate,
)
from hyra.sets import Box

from support import GENERATED_SEEDS, condition_holds_reference, generated_bundle, validate_reference


def _codes(defects):
    return {d.code for d in defects}


def test_ball_automaton_validates_clean():
    defects = validate(build_bouncing_ball().automaton)
    assert not defects
    assert len(defects) == 0


def test_single_ball_one_location_one_transition_clean():
    table = VariableTable(("x", "v"))
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 0)), [0.0, -9.81])
    inv = Condition((LinearConstraint([1.0, 0.0], ">=", 0.0),))
    guard = Condition(
        (LinearConstraint([1.0, 0.0], "==", 0.0), LinearConstraint([0.0, 1.0], "<=", 0.0))
    )
    reset = ResetMap(np.array([[1.0, 0.0], [0.0, -0.75]]), np.zeros(2))
    automaton = HybridAutomaton(
        "ball",
        table,
        (Location("always", inv, dyn),),
        (Transition("always", "always", guard, reset),),
    )
    assert not validate(automaton)


def test_dangling_transition_target_is_reported():
    table = VariableTable(("x",))
    dyn = AffineDynamics.zero(1)
    loc = Location("a", Condition(), dyn)
    bad = Transition("a", "missing", Condition(), ResetMap.identity(1))
    automaton = HybridAutomaton("m", table, (loc,), (bad,))
    defects = validate(automaton)
    assert "dangling-name" in _codes(defects)


def test_wrong_matrix_shape_is_a_dimension_defect():
    # 17x18 dynamics against an 18-variable table
    table = VariableTable(tuple(f"s{i}" for i in range(18)))
    dyn = AffineDynamics(np.zeros((17, 18)), np.zeros((17, 0)), np.zeros(17))
    automaton = HybridAutomaton("m", table, (Location("a", Condition(), dyn),), ())
    assert "dimension" in _codes(validate(automaton))


def test_validate_flags_unknown_symbol_and_duplicates():
    table = VariableTable(("x", "x"))
    con = LinearConstraint([1.0, 0.0], "<=", 0.0, bound_terms={"mystery": 1.0})
    dyn = AffineDynamics.zero(2)
    automaton = HybridAutomaton("m", table, (Location("a", Condition((con,)), dyn),), ())
    codes = _codes(validate(automaton))
    assert "duplicate-name" in codes
    assert "unknown-symbol" in codes


def test_validate_is_idempotent():
    automaton = build_platoon().automaton
    assert validate(automaton) == validate(automaton)


def test_bind_input_folds_column_into_drift():
    bundle = build_linswitch()
    automaton = bundle.automaton
    assert automaton.vars.input_vars == ("u",)
    bound = bind_constant(automaton, "u", 0.0)
    assert bound.vars.input_vars == ()
    for loc in bound.locations:
        assert loc.dynamics.b.shape == (4, 0)
        assert not loc.dynamics.c.any()  # u = 0 contributes nothing
    # a nonzero binding lands in the drift where the input column was nonzero
    bound2 = bind_constant(automaton, "u", 2.0)
    q1 = bound2.location("q1")
    src = automaton.location("q1").dynamics.b[:, 0]
    assert src.any()
    assert np.array_equal(q1.dynamics.c, 2.0 * src)


@pytest.mark.parametrize("c_terms", [{}, {"k": [1.0, -1.0]}], ids=["no-drift-terms", "drift-terms"])
def test_bind_input_folds_its_symbolic_column_into_the_drift_terms(c_terms):
    table = VariableTable(("x", "y"), ("u", "w"), {"k": 0.5})
    dyn = AffineDynamics([[0.0, 1.0], [-1.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]], [0.25, 0.0],
                         b_terms={"k": [[0.0, 3.0], [1.0, 4.0]]}, c_terms=c_terms)
    automaton = HybridAutomaton("inputs", table, (Location("q", Condition(), dyn),), (),
                                {"u": (-1.0, 1.0), "w": (0.0, 1.0)})
    bound = bind_constant(automaton, "w", 2.0)
    got = bound.location("q").dynamics
    assert bound.vars.input_vars == ("u",) and bound.input_range == {"u": (-1.0, 1.0)}
    assert np.array_equal(got.b, [[1.0], [0.0]]) and np.array_equal(got.c, [0.25, 4.0])
    assert np.array_equal(got.b_terms["k"], [[0.0], [1.0]])
    assert np.array_equal(got.c_terms["k"], np.add(c_terms.get("k", 0.0), [6.0, 8.0]))
    # resolved, the bound automaton is the original one with w's column times 2 in the drift
    want, resolved = automaton.resolved.location("q").dynamics, bound.resolved.location("q").dynamics
    assert np.array_equal(resolved.b, want.b[:, :1])
    assert np.array_equal(resolved.c, want.c + 2.0 * want.b[:, 1])


def test_bind_constant_revalues_symbolic_reset():
    bundle = build_bouncing_ball()
    rebound = bind_constant(bundle.automaton, "c", 0.9)
    resolved = rebound.resolved
    assert resolved.transitions[0].reset.r_matrix[1, 1] == -0.9
    # original object untouched (values are immutable)
    assert bundle.automaton.vars.constants["c"] == 0.75
    assert bundle.automaton.resolved.transitions[0].reset.r_matrix[1, 1] == -0.75


def test_resolved_is_computed_once_and_rebinding_resolves_afresh():
    ball = build_bouncing_ball().automaton
    resolved = ball.resolved
    assert ball.resolved is resolved
    assert resolved.resolved is resolved
    fresh = HybridAutomaton(ball.name, ball.vars, ball.locations, ball.transitions, ball.input_range)
    assert fresh.resolved is not resolved and fresh.resolved == resolved
    rebound = bind_constant(ball, "c", 0.9)
    assert rebound.resolved is not resolved
    assert rebound.resolved.transitions[0].reset.r_matrix[1, 1] == -0.9
    assert ball.resolved.transitions[0].reset.r_matrix[1, 1] == -0.75


def test_derived_forms_are_attributes_kept_on_the_record():
    bundle = build_bouncing_ball()
    assert bundle.resolved is bundle.resolved
    assert bundle.resolved.resolved is bundle.resolved
    assert bundle.resolved.automaton is bundle.automaton.resolved
    copy = dataclasses.replace(bundle)
    assert copy.resolved is not bundle.resolved and copy.resolved == bundle.resolved
    cond = bundle.resolved.automaton.transitions[0].guard
    assert cond.halfspaces is cond.halfspaces
    reset = bundle.resolved.automaton.transitions[0].reset
    assert reset.is_identity is reset.is_identity is False
    # a kept form is no field: it leaves equality alone
    assert Condition(cond.constraints) == cond and "halfspaces" not in Condition(cond.constraints).__dict__


def test_outgoing_lists_each_locations_transitions_in_declared_order_once():
    tank = build_tank().automaton
    outgoing = tank.outgoing
    assert tank.outgoing is outgoing and list(outgoing) == list(tank.location_names())
    assert [t for loc in tank.locations for t in outgoing[loc.name]] == list(tank.transitions)
    assert [t.label for t in outgoing["on_off_on"]] == ["valve1", "valve2", "valve3"]
    assert build_platoon().automaton.outgoing["q_n"][0].label == "restore"


def test_ir_constructors_leave_the_callers_arrays_writable():
    coeffs, a, b, c = np.array([1.0, 2.0]), np.eye(2), np.zeros((2, 1)), np.ones(2)
    con = LinearConstraint(coeffs, "<=", 1.0)
    dyn = AffineDynamics(a, b, c)
    coeffs[0], a[0, 0], b[0, 0], c[0] = 5.0, 7.0, 9.0, 11.0
    assert con.coeffs.tolist() == [1.0, 2.0] and not con.coeffs.flags.writeable
    assert dyn.a.tolist() == np.eye(2).tolist() and dyn.b.tolist() == [[0.0], [0.0]]
    assert dyn.c.tolist() == [1.0, 1.0] and not dyn.a.flags.writeable


def test_bind_unknown_symbol_raises():
    with pytest.raises(UnknownSymbol):
        bind_constant(build_bouncing_ball().automaton, "z", 1.0)


def test_bind_then_validate_adds_no_dimension_defects():
    automaton = build_linswitch().automaton
    assert not validate(automaton)
    assert not validate(bind_constant(automaton, "u", 0.0))


def test_default_reset_is_exact_identity():
    reset = ResetMap.identity(3)
    x = np.array([1.25, -7.5, 0.3])
    assert np.array_equal(reset.apply(x), x)
    assert reset.is_identity


def test_ir_values_are_immutable():
    automaton = build_bouncing_ball().automaton
    with pytest.raises(ValueError):
        automaton.locations[0].dynamics.a[0, 0] = 5.0


@pytest.mark.parametrize("value", [2.5, True, -1, -2.0, float("nan"), float("inf")])
def test_max_jumps_must_be_an_integer_at_least_zero(value):
    with pytest.raises(ValueError, match="max_jumps must be an integer >= 0"):
        ReachSettings(1, 0.1, value)


@pytest.mark.parametrize("value", [2**64, 2**70, 1e20])
def test_max_jumps_must_be_below_two_to_the_64(value):
    with pytest.raises(ValueError, match=r"max_jumps must be below 2\*\*64, not \d+$"):
        ReachSettings(1, 0.1, value)
    assert ReachSettings(1, 0.1, 2**64 - 1).max_jumps == 2**64 - 1


@pytest.mark.parametrize("step, reason", [
    (1e-320, "overflows"), (5e-324, "overflows"),
    (1e-300, "is above 1048576 steps"), (float(np.nextafter(5.0 / 2**20, 0.0)), "is above 1048576 steps"),
])
def test_a_step_whose_count_over_the_horizon_is_above_the_bound_is_rejected(step, reason):
    with pytest.raises(ValueError, match=f"too small for horizon 5.0: horizon / step {reason}$"):
        ReachSettings(5.0, step)
    assert MAX_STEP_COUNT == 2**20 and ReachSettings(5.0, 5.0 / 2**20).step == 5.0 / 2**20  # the bound is accepted


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)])
def test_integral_max_jumps_is_stored_as_an_int(value):
    assert type(ReachSettings(1, 0.1, value).max_jumps) is int
    assert ReachSettings(1, 0.1, value).max_jumps == 2


def ir_values():
    """One value of each IR class, built afresh on every call (no shared arrays)."""
    table = VariableTable(("x", "v"), ("u",), {"k": 0.5})
    con = LinearConstraint([1.0, 0.0], "<=", 1.0, {"k": [0.0, 1.0]}, {"k": 2.0})
    cond = Condition((con,))
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [0.0, -9.81], {"k": np.eye(2)})
    reset = ResetMap([[1.0, 0.0], [0.0, -0.75]], [0.0, 0.0], {"k": np.eye(2)}, {"k": [1.0, 0.0]})
    loc = Location("fall", cond, dyn)
    tr = Transition("fall", "fall", cond, reset, "bounce")
    automaton = HybridAutomaton("ball", table, (loc,), (tr,), {"u": (0.0, 1.0)})
    initial = InitialCondition("fall", Box([1.0, 0.0], [2.0, 0.0]))
    settings = ReachSettings(4.0, 0.01, 2, cond, ("x",), True)
    bundle = ModelBundle(automaton, settings, initial)
    return [table, con, cond, dyn, reset, loc, tr, automaton, initial, settings, bundle]


# every field of every IR class, with a value that differs from ir_values()
CHANGED_FIELDS = {
    VariableTable: {"state_vars": ("x", "w"), "input_vars": (), "constants": {"k": 0.25}},
    LinearConstraint: {"coeffs": [1.0, 1e-300], "relation": "<", "bound": 1.5,
                       "coeff_terms": {"k": [0.0, 2.0]}, "bound_terms": {"k": 3.0}},
    Condition: {"constraints": ()},
    AffineDynamics: {"a": np.zeros((2, 2)), "b": np.zeros((2, 1)), "c": [0.0, -9.8],
                     "a_terms": {}, "b_terms": {"k": np.ones((2, 1))}, "c_terms": {"j": np.ones(2)}},
    ResetMap: {"r_matrix": np.eye(2), "r_offset": [0.0, 1.0], "matrix_terms": {"k": np.zeros((2, 2))},
               "offset_terms": {}},
    Location: {"name": "rise", "invariant": Condition(), "dynamics": AffineDynamics.zero(2, 1)},
    Transition: {"source": "rise", "target": "rise", "guard": Condition(),
                 "reset": ResetMap.identity(2), "label": None},
    HybridAutomaton: {"name": "ball2", "vars": VariableTable(("x", "v")), "locations": (),
                      "transitions": (), "input_range": {"u": (0.0, 2.0)}},
    InitialCondition: {"location": "rise", "box": Box([1.0, 0.0], [2.5, 0.0])},
    ReachSettings: {"horizon": 5.0, "step": 0.02, "max_jumps": 3, "forbidden": None,
                    "output_vars": ("v",), "fixpoint_check": False},
    ModelBundle: {"automaton": HybridAutomaton("other", VariableTable(("x",)), (), ()),
                  "settings": ReachSettings(1.0, 0.1), "initial": InitialCondition("fall", Box([0.0], [0.0]))},
}


@pytest.mark.parametrize("index", range(11), ids=[c.__name__ for c in CHANGED_FIELDS])
def test_ir_values_compare_field_by_field_and_stay_unhashable(index):
    value, fresh = ir_values()[index], ir_values()[index]
    cls = type(value)
    assert value == fresh and fresh == value and not value != fresh
    assert value != object() and value != None  # noqa: E711
    with pytest.raises(TypeError, match="unhashable"):
        hash(value)
    changed = CHANGED_FIELDS[cls]
    assert set(changed) == {f.name for f in dataclasses.fields(cls)}
    for name, other in changed.items():
        altered = dataclasses.replace(fresh, **{name: other})
        assert value != altered and altered != value, name


def test_equal_term_arrays_need_equal_shapes_and_entries():
    dyn = AffineDynamics.zero(2)
    term = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert dataclasses.replace(dyn, a_terms={"k": term}) == \
        dataclasses.replace(dyn, a_terms={"k": [[1.0, -0.0], [0.0, 0.0]]})
    assert dataclasses.replace(dyn, a_terms={"k": term}) != \
        dataclasses.replace(dyn, a_terms={"k": term.reshape(1, 2, 2)})
    assert dataclasses.replace(dyn, a=np.full((2, 2), np.nan)) != dataclasses.replace(dyn, a=np.full((2, 2), np.nan))


def box_inside_reference(box, cond, slack):
    """Per constraint, from the relation: the box's max/min of c . x against the bound."""
    for con in cond.constraints:
        c = con.coeffs
        top = float(np.where(c >= 0, c * box.hi, c * box.lo).sum())
        bottom = float(np.where(c >= 0, c * box.lo, c * box.hi).sum())
        below = top <= con.bound + slack
        above = bottom >= con.bound - slack
        if not {"<=": below, "<": below, ">=": above, ">": above, "==": below and above}[con.relation]:
            return False
    return True


@pytest.mark.parametrize("relation", ["<=", "<", "==", ">=", ">"])
def test_halfspace_rows_agree_with_the_relations(relation):
    from hyra.reach import _CONTAIN_SLACK, _box_inside_condition

    rng = np.random.default_rng(5)
    slack = 0.5
    agreed = {True: 0, False: 0}
    for _ in range(200):
        n = int(rng.integers(1, 4))
        constraints = [LinearConstraint(rng.normal(size=n) * (rng.uniform(size=n) < 0.7), rel, float(rng.normal()))
                       for rel in (relation, rng.choice(["<=", ">=", "=="]))]
        cond = Condition(constraints)
        rows = cond.halfspaces
        assert rows.coeffs.shape == (len(rows.bounds), n)
        assert rows.equality.sum() == 2 * sum(c.relation == "==" for c in constraints)
        x = rng.normal(size=n) * 2.0
        levels = [float(c.coeffs @ x) - c.bound for c in constraints]
        if all(abs(abs(g) - slack) > 1e-6 for g in levels):  # away from every boundary |g| = slack
            holds = condition_holds_reference(cond, x, slack)
            assert holds == cond.satisfied(x, slack)
            agreed[holds] += 1
        center, radius = rng.normal(size=n), rng.uniform(0.0, 1.0, size=n)
        box = Box(center - radius, center + radius)
        assert _box_inside_condition(box, cond) == box_inside_reference(box, cond, _CONTAIN_SLACK)
    assert agreed[True] > 0 and agreed[False] > 0


@pytest.mark.parametrize("coeffs, bound", [([2.0], -3.5), ([1.0, -2.0, 0.5], 4.25), ([0.0, 3.0, -1.0], -0.75)])
def test_an_equality_holds_within_its_slack_of_a_nonzero_bound(coeffs, bound):
    c = np.array(coeffs)
    unit = c / (c @ c)  # a step of 1 along it moves c . x by 1
    cond = Condition((LinearConstraint(c, "==", bound), LinearConstraint(np.ones(len(c)), ">=", -100.0)))
    slack = 1e-6
    for offset, inside in ((0.0, True), (0.999, True), (-0.999, True), (1.001, False), (-1.001, False)):
        x = (bound + offset * slack) * unit
        assert cond.satisfied(x, slack) == inside == condition_holds_reference(cond, x, slack), offset


def test_halfspace_form_of_a_symbolic_condition_raises():
    from hyra.reach import check_safety, reach

    ball = build_bouncing_ball()
    v_row = np.array([0.0, 1.0, 0.0, 0.0])
    symbolic = Condition((LinearConstraint(v_row, ">=", 14.0, bound_terms={"c": -8.0}),))
    with pytest.raises(ValueError, match="resolve"):
        symbolic.halfspaces
    with pytest.raises(ValueError, match="resolve"):
        symbolic.satisfied(np.zeros(4))
    with pytest.raises(ValueError, match="resolve"):
        check_safety(reach(ball).segments, symbolic)
    resolved = symbolic.resolve(ball.automaton.vars.constants)
    assert np.array_equal(resolved.halfspaces.coeffs, [-v_row]) and resolved.halfspaces.bounds[0] == -8.0


# -- validate against the per-array numpy formulation it replaced --------------

def _parity_base() -> HybridAutomaton:
    """Two locations and two transitions with an input, a constant and symbolic terms; it validates clean."""
    table = VariableTable(("x", "y"), ("u",), {"k": 2.0})
    dyn = AffineDynamics([[0.0, 1.0], [-1.0, 0.0]], [[1.0], [0.0]], [0.0, -9.81], {"k": [[0.0, 1.0], [0.0, 0.0]]})
    inv = Condition((LinearConstraint([1.0, 0.0], ">=", 0.0),
                     LinearConstraint([0.0, 1.0], "<=", 5.0, bound_terms={"k": 1.0})))
    guard = Condition((LinearConstraint([1.0, 0.0], "<=", 0.0),
                       LinearConstraint([0.0, 1.0], "<", 0.0, {"k": [0.0, 1.0]})))
    reset = ResetMap([[1.0, 0.0], [0.0, -0.75]], [0.0, 0.0], {"k": [[0.0, 0.0], [0.0, 1.0]]})
    return HybridAutomaton("base", table, (Location("a", inv, dyn), Location("b", inv, dyn)),
                           (Transition("a", "b", guard, reset, "hit"), Transition("b", "a", Condition(), ResetMap.identity(2))),
                           {"u": (-1.0, 1.0)})


def _entry(array, index, value) -> np.ndarray:
    out = np.array(array)
    out[index] = value
    return out


def _edit_location(automaton, i, **changes):
    locations = list(automaton.locations)
    locations[i] = dataclasses.replace(locations[i], **changes)
    return dataclasses.replace(automaton, locations=tuple(locations))


def _edit_dynamics(automaton, i, **changes):
    return _edit_location(automaton, i, dynamics=dataclasses.replace(automaton.locations[i].dynamics, **changes))


def _edit_transition(automaton, i, **changes):
    transitions = list(automaton.transitions)
    transitions[i] = dataclasses.replace(transitions[i], **changes)
    return dataclasses.replace(automaton, transitions=tuple(transitions))


def _edit_constraint(cond, j, **changes):
    constraints = list(cond.constraints)
    constraints[j] = dataclasses.replace(constraints[j], **changes)
    return Condition(tuple(constraints))


def _edit_invariant(automaton, i, j, **changes):
    return _edit_location(automaton, i, invariant=_edit_constraint(automaton.locations[i].invariant, j, **changes))


def _edit_guard(automaton, i, j, **changes):
    return _edit_transition(automaton, i, guard=_edit_constraint(automaton.transitions[i].guard, j, **changes))


def _edit_reset(automaton, i, **changes):
    return _edit_transition(automaton, i, reset=dataclasses.replace(automaton.transitions[i].reset, **changes))


_NAN, _INF = float("nan"), float("inf")
_BASE = _parity_base()
_DYN = _BASE.locations[0].dynamics
_FORBIDDEN = Condition((LinearConstraint([1.0, 0.0], ">=", 3.0, bound_terms={"k": 0.5}),))
# (expected defect code, automaton, forbidden set) per case; None expects a clean report.
_DEFECT_CASES = {
    "clean": (None, _BASE, _FORBIDDEN),
    "nan-invariant-coeff": ("non-finite", _edit_invariant(_BASE, 0, 0, coeffs=[_NAN, 0.0]), None),
    "inf-guard-coeff": ("non-finite", _edit_guard(_BASE, 0, 1, coeffs=[0.0, _INF]), None),
    "nan-bound": ("non-finite", _edit_invariant(_BASE, 1, 1, bound=_NAN), None),
    "-inf-bound": ("non-finite", _edit_guard(_BASE, 0, 0, bound=-_INF), None),
    "nan-only-coeff": ("non-finite", _edit_invariant(_BASE, 0, 0, coeffs=[_NAN, -0.0]), None),
    "nan-a": ("non-finite", _edit_dynamics(_BASE, 1, a=_entry(_DYN.a, (0, 1), _NAN)), None),
    "inf-b": ("non-finite", _edit_dynamics(_BASE, 0, b=_entry(_DYN.b, (1, 0), _INF)), None),
    "nan-c": ("non-finite", _edit_dynamics(_BASE, 0, c=_entry(_DYN.c, 1, _NAN)), None),
    "nan-a-and-c": ("non-finite", _edit_dynamics(_BASE, 0, a=_entry(_DYN.a, 0, _NAN), c=[_INF, 0.0]), None),
    "inf-reset-matrix": ("non-finite", _edit_reset(_BASE, 1, r_matrix=_entry(np.eye(2), (1, 1), -_INF)), None),
    "nan-reset-offset": ("non-finite", _edit_reset(_BASE, 0, r_offset=[0.0, _NAN]), None),
    "nan-reset-wrong-shape": ("dimension", _edit_reset(_BASE, 0, r_offset=[_NAN, 0.0, 0.0]), None),
    "a-shape": ("dimension", _edit_dynamics(_BASE, 0, a=np.zeros((1, 2))), None),
    "b-shape": ("dimension", _edit_dynamics(_BASE, 1, b=np.zeros((2, 2))), None),
    "c-shape": ("dimension", _edit_dynamics(_BASE, 0, c=[0.0, 1.0, _NAN]), None),
    "constraint-shape": ("dimension", _edit_guard(_BASE, 0, 0, coeffs=[1.0, 0.0, _NAN]), None),
    "reset-shape": ("dimension", _edit_reset(_BASE, 1, r_matrix=np.eye(3)), None),
    "zero-constraint": ("degenerate-constraint", _edit_invariant(_BASE, 0, 1, coeffs=[0.0, 0.0], bound_terms={}), None),
    "negative-zero-constraint": ("degenerate-constraint", _edit_guard(_BASE, 0, 0, coeffs=[-0.0, -0.0]), None),
    "zero-constraint-with-coeff-terms": (None, _edit_guard(_BASE, 0, 1, coeffs=[0.0, 0.0]), None),
    "unknown-coeff-term": ("unknown-symbol", _edit_guard(_BASE, 0, 1, coeff_terms={"q": [1.0, 0.0]}), None),
    "unknown-bound-terms": ("unknown-symbol", _edit_invariant(_BASE, 1, 1, bound_terms={"q": 1.0, "r": 2.0, "k": 1.0}), None),
    "unknown-dynamics-terms": ("unknown-symbol", _edit_dynamics(_BASE, 1, b_terms={"q": [[1.0], [0.0]]},
                                                                c_terms={"r": [1.0, 0.0]}), None),
    "unknown-reset-term": ("unknown-symbol", _edit_reset(_BASE, 0, offset_terms={"q": [1.0, 0.0]}), None),
    "duplicate-name": ("duplicate-name", dataclasses.replace(_BASE, vars=VariableTable(("x", "y"), ("u",), {"x": 1.0, "u": 2.0, "k": 2.0})), None),
    "duplicate-location": ("duplicate-location", _edit_location(_BASE, 1, name="a"), None),
    "dangling-source": ("dangling-name", _edit_transition(_BASE, 0, source="nowhere"), None),
    "dangling-both": ("dangling-name", _edit_transition(_BASE, 1, source="p", target="q"), None),
    "infinite-input": ("input-range", dataclasses.replace(_BASE, input_range={"u": (-_INF, 1.0)}), None),
    "nan-input": ("input-range", dataclasses.replace(_BASE, input_range={"u": (0.0, _NAN)}), None),
    "empty-input": ("input-range", dataclasses.replace(_BASE, input_range={"u": (2.0, 1.0)}), None),
    "input-keys": ("input-range", dataclasses.replace(_BASE, input_range={}), None),
    "no-state": ("no-state", dataclasses.replace(_BASE, vars=VariableTable((), ("u",), {"k": 2.0})), None),
    "no-location": ("no-location", dataclasses.replace(_BASE, locations=()), None),
    "forbidden-nan-bound": ("non-finite", _BASE, Condition((LinearConstraint([1.0, 0.0], "<=", _NAN),))),
    "forbidden-inf-coeff": ("non-finite", _BASE, Condition((LinearConstraint([_INF, 0.0], "<=", 1.0),))),
    "forbidden-dimension": ("dimension", _BASE, Condition((LinearConstraint([1.0], "<=", 1.0),))),
    "forbidden-zero": ("degenerate-constraint", _BASE, Condition((LinearConstraint([0.0, 0.0], "<=", 1.0),))),
    "forbidden-unknown": ("unknown-symbol", _BASE, Condition((LinearConstraint([1.0, 0.0], "<=", 1.0, {"q": [1.0, 0.0]}),))),
}
_MANY = _edit_reset(_edit_dynamics(_edit_guard(_edit_invariant(_DEFECT_CASES["duplicate-location"][1], 0, 0, coeffs=[_NAN, 0.0]),
                                               0, 1, coeffs=[0.0, 0.0], coeff_terms={}, bound=_INF),
                                   1, a=np.zeros((2, 3)), c=[_NAN, 0.0]), 0, r_matrix=[[_NAN, 0.0], [0.0, 1.0]])
_DEFECT_CASES["many"] = ("non-finite", dataclasses.replace(_MANY, input_range={"u": (1.0, -1.0)}), _FORBIDDEN)


def _parity_inputs():
    for bench in BenchmarkId:
        bundle = build(bench)
        yield bench.value, bundle.automaton, bundle.settings.forbidden
    for seed in GENERATED_SEEDS:
        bundle = generated_bundle(seed)
        yield f"generated-{seed}", bundle.automaton, bundle.settings.forbidden
    for name, (_, automaton, forbidden) in _DEFECT_CASES.items():
        yield name, automaton, forbidden


@pytest.mark.parametrize("automaton, forbidden", [pytest.param(a, f, id=name) for name, a, f in _parity_inputs()])
def test_validate_reports_the_defects_of_the_numpy_formulation(automaton, forbidden):
    assert validate(automaton, forbidden) == validate_reference(automaton, forbidden)


def test_the_parity_cases_hit_every_defect_code():
    codes = set()
    for name, (code, automaton, forbidden) in _DEFECT_CASES.items():
        found = _codes(validate(automaton, forbidden))
        assert (code in found) if code else not found, name
        codes |= found
    assert codes == {"no-state", "duplicate-name", "input-range", "duplicate-location", "dimension", "non-finite",
                     "unknown-symbol", "no-location", "dangling-name", "degenerate-constraint"}
    assert len(validate(*_DEFECT_CASES["many"][1:])) >= 8


_NON_FINITE = [float("nan"), float("inf"), -float("inf")]


def _with_term(automaton, where: str, value: float):
    """``automaton`` (the ball, resolved or not) with one entry of a symbolic term of ``c`` set to ``value``."""
    if where == "constant":
        return dataclasses.replace(automaton, vars=VariableTable(automaton.vars.state_vars, automaton.vars.input_vars,
                                                                 {"c": value}))
    if where == "matrix_terms":
        return _edit_reset(automaton, 0, matrix_terms={"c": _entry(np.zeros((4, 4)), (1, 1), value)})
    if where == "c_terms":
        return _edit_dynamics(automaton, 0, c_terms={"c": _entry(np.zeros(4), 1, value)})
    if where == "coeff_terms":
        return _edit_invariant(automaton, 0, 0, coeff_terms={"c": _entry(np.zeros(4), 0, value)})
    return _edit_guard(automaton, 0, 0, bound_terms={"c": value})


@pytest.mark.parametrize("value", _NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where, message", [
    ("constant", "constant 'c' is not finite"),
    ("matrix_terms", "transition #0 (always->always): reset term not finite"),
    ("c_terms", "location 'always': dynamics term not finite"),
    ("coeff_terms", "location 'always' invariant: constraint has non-finite entries"),
    ("bound_terms", "transition #0 (always->always) guard: constraint has non-finite entries"),
], ids=["constant", "matrix_terms", "c_terms", "coeff_terms", "bound_terms"])
def test_non_finite_constants_and_terms_are_defects(where, message, value):
    automaton = _with_term(build_bouncing_ball().automaton, where, value)
    defects = [(d.code, d.message) for d in validate(automaton)]
    assert ("non-finite", message) in defects
    assert {code for code, _ in defects} == {"non-finite"}


def test_the_corpus_and_the_generated_bundles_still_validate():
    bundles = [build(bench) for bench in BenchmarkId] + [generated_bundle(seed) for seed in GENERATED_SEEDS]
    for bundle in bundles:
        assert not validate(bundle.automaton, bundle.settings.forbidden)
