from hyra.corpus import build_bouncing_ball, build_linswitch, build_tank
from hyra.expressions import parse_condition
from hyra.flowstar import emit_flowstar
from hyra.ir import ModelBundle, ReachSettings


def test_ball_mode_block_has_the_ode_rows():
    text = emit_flowstar(build_bouncing_ball())
    assert "lti ode" in text
    assert "x' = v" in text
    assert "v' = -9.81" in text
    assert "fixed steps 0.01" in text
    assert "time 40" in text
    assert "max jumps 1" in text
    assert "x in [10, 10.2]" in text
    assert "v >= 10.7" in text


def test_tank_emits_eight_mode_blocks():
    text = emit_flowstar(build_tank())
    modes_section = text.split(" modes")[1].split(" jumps")[0]
    assert modes_section.count("lti ode") == 8
    for v3 in ("off", "on"):
        assert f"  off_off_{v3}\n" in text


def test_interval_aggregation_directive_on_every_jump():
    text = emit_flowstar(build_tank())
    jumps_section = text.split("\n jumps\n")[1].split("\n init\n")[0]
    assert jumps_section.count("interval aggregation") == 24


def test_emission_is_deterministic():
    bundle = build_linswitch()
    assert emit_flowstar(bundle) == emit_flowstar(bundle)


def test_inputs_are_declared_with_their_range():
    text = emit_flowstar(build_linswitch())
    assert "input var u in [-0.1, 0.1]" in text
    assert "0.0845*u" in text


def test_symbolic_constants_are_resolved():
    text = emit_flowstar(build_bouncing_ball())
    assert "v' := -0.75*v" in text
    assert "c*" not in text.split("\n jumps\n")[1].split("\n init\n")[0]


def test_unsafe_block_writes_the_forbidden_set_with_constants_resolved():
    ball = build_bouncing_ball()  # c = 0.75
    s = ball.settings
    forbidden = parse_condition("v >= 20 - 12.4*c", ball.automaton.vars)

    def emitted(condition):
        settings = ReachSettings(s.horizon, s.step, s.max_jumps, condition, s.output_vars, s.fixpoint_check)
        return emit_flowstar(ModelBundle(ball.automaton, settings, ball.initial))

    text = emitted(forbidden)
    assert "v >= 20\n" not in text
    assert text == emitted(forbidden.resolve(ball.automaton.vars.constants))
