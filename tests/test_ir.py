import numpy as np
import pytest

from hyra.corpus import build_bouncing_ball, build_platoon
from hyra.errors import UnknownSymbol
from hyra.ir import (
    AffineDynamics,
    Condition,
    HybridAutomaton,
    LinearConstraint,
    Location,
    ResetMap,
    Transition,
    VariableTable,
    bind_constant,
    validate,
)


def _codes(report):
    return {d.code for d in report}


def test_ball_automaton_validates_clean():
    report = validate(build_bouncing_ball().automaton)
    assert report.ok
    assert len(report) == 0


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
    assert validate(automaton).ok


def test_dangling_transition_target_is_reported():
    table = VariableTable(("x",))
    dyn = AffineDynamics.zero(1)
    loc = Location("a", Condition(), dyn)
    bad = Transition("a", "missing", Condition(), ResetMap.identity(1))
    automaton = HybridAutomaton("m", table, (loc,), (bad,))
    report = validate(automaton)
    assert "dangling-name" in _codes(report)


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
    assert validate(automaton).defects == validate(automaton).defects


def test_bind_input_folds_column_into_drift():
    bundle = build_platoon(bind_lead_accel=False)
    automaton = bundle.automaton
    assert automaton.vars.input_vars == ("aL",)
    bound = bind_constant(automaton, "aL", 0.0)
    assert bound.vars.input_vars == ()
    for loc in bound.locations:
        assert loc.dynamics.b.shape == (18, 0)
        assert not loc.dynamics.c.any()  # aL = 0 contributes nothing
    # a nonzero binding lands in the drift where the input column was nonzero
    bound2 = bind_constant(automaton, "aL", 2.0)
    q_c = bound2.location("q_c")
    src = automaton.location("q_c").dynamics.b[:, 0]
    assert np.array_equal(q_c.dynamics.c, 2.0 * src)


def test_bind_constant_revalues_symbolic_reset():
    bundle = build_bouncing_ball()
    rebound = bind_constant(bundle.automaton, "c", 0.9)
    resolved = rebound.resolved()
    assert resolved.transitions[0].reset.r_matrix[1, 1] == -0.9
    # original object untouched (values are immutable)
    assert bundle.automaton.vars.constants["c"] == 0.75
    assert bundle.automaton.resolved().transitions[0].reset.r_matrix[1, 1] == -0.75


def test_resolved_is_computed_once_and_rebinding_resolves_afresh():
    ball = build_bouncing_ball().automaton
    resolved = ball.resolved()
    assert ball.resolved() is resolved
    assert resolved.resolved() is resolved
    fresh = HybridAutomaton(ball.name, ball.vars, ball.locations, ball.transitions, ball.input_range)
    assert fresh.resolved() is not resolved and fresh.resolved() == resolved
    rebound = bind_constant(ball, "c", 0.9)
    assert rebound.resolved() is not resolved
    assert rebound.resolved().transitions[0].reset.r_matrix[1, 1] == -0.9
    assert ball.resolved().transitions[0].reset.r_matrix[1, 1] == -0.75


def test_bind_unknown_symbol_raises():
    with pytest.raises(UnknownSymbol):
        bind_constant(build_bouncing_ball().automaton, "z", 1.0)


def test_bind_then_validate_adds_no_dimension_defects():
    automaton = build_platoon(bind_lead_accel=False).automaton
    assert validate(automaton).ok
    assert validate(bind_constant(automaton, "aL", 0.0)).ok


def test_default_reset_is_exact_identity():
    reset = ResetMap.identity(3)
    x = np.array([1.25, -7.5, 0.3])
    assert np.array_equal(reset.apply(x), x)
    assert reset.is_identity()


def test_ir_values_are_immutable():
    automaton = build_bouncing_ball().automaton
    with pytest.raises(ValueError):
        automaton.locations[0].dynamics.a[0, 0] = 5.0
