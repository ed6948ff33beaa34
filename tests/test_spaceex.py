import dataclasses

import numpy as np
import pytest

from hyra.cli import main
from hyra.corpus import BenchmarkId, build, build_bouncing_ball
from hyra.errors import ModelDefects, UnsupportedFeature, XmlMalformed
from hyra.ir import AffineDynamics, ResetMap, VariableTable, validate
from hyra.spaceex import emit_spaceex, parse_assignment, parse_flow, parse_spaceex

from support import CORPUS_DIR

BALL_XML = """<?xml version="1.0" encoding="UTF-8"?>
<sspaceex version="0.2" math="SpaceEx">
  <component id="ball">
    <param name="x" type="real" dynamics="any" />
    <param name="v" type="real" dynamics="any" />
    <location id="1" name="always">
      <invariant>x &gt;= 0</invariant>
      <flow>x' == v &amp; v' == -9.81</flow>
    </location>
    <transition source="1" target="1">
      <guard>x == 0 &amp; v &lt;= 0</guard>
      <assignment>v := -0.75*v</assignment>
    </transition>
  </component>
</sspaceex>
"""


def test_parse_ball_model():
    automaton = parse_spaceex(BALL_XML)
    assert automaton.name == "ball"
    assert automaton.vars.state_vars == ("x", "v")
    (loc,) = automaton.locations
    assert loc.name == "always"
    assert np.array_equal(loc.dynamics.a, [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(loc.dynamics.c, [0.0, -9.81])
    (inv,) = loc.invariant.constraints
    assert inv.relation == ">=" and inv.bound == 0.0
    (tr,) = automaton.transitions
    assert len(tr.guard.constraints) == 2
    assert tr.reset.r_matrix[1, 1] == -0.75
    assert tr.reset.r_matrix[0, 0] == 1.0  # untouched row stays identity


def test_empty_invariant_means_true():
    xml = BALL_XML.replace("<invariant>x &gt;= 0</invariant>", "<invariant></invariant>")
    automaton = parse_spaceex(xml)
    assert automaton.locations[0].invariant.is_true


def test_missing_flow_row_means_zero_derivative():
    xml = BALL_XML.replace("x' == v &amp; v' == -9.81", "v' == -9.81")
    automaton = parse_spaceex(xml)
    assert not automaton.locations[0].dynamics.a[0].any()


def test_malformed_xml_rejected():
    with pytest.raises(XmlMalformed):
        parse_spaceex("<sspaceex><component id='x'>")


def test_network_bind_rejected():
    xml = BALL_XML.replace(
        "</component>", '<bind component="other" as="sub" /></component>'
    )
    with pytest.raises(UnsupportedFeature):
        parse_spaceex(xml)


def test_two_components_rejected():
    xml = BALL_XML.replace(
        "</sspaceex>", '<component id="second"><param name="y" type="real"/></component></sspaceex>'
    )
    with pytest.raises(UnsupportedFeature):
        parse_spaceex(xml)


@pytest.mark.parametrize("old, new, message", [
    pytest.param("</sspaceex>", "", "not well-formed XML: no element found: line 16, column 0", id="not-well-formed"),
    pytest.param("sspaceex", "spaceex", "expected <sspaceex> root, found <spaceex>", id="root"),
    pytest.param("component", "automaton", "no <component> element", id="no-component"),
    pytest.param("</sspaceex>", '<component id="second"><param name="y" type="real"/></component></sspaceex>',
                 "multiple components (networks) are not supported", id="two-components"),
    pytest.param("</component>", '<bind component="other" as="sub" /></component>',
                 "component bindings are not supported", id="bind"),
    pytest.param('name="v" ', "", "param without a name", id="param-without-name"),
    pytest.param('name="v" type="real"', 'name="v" type="int"', "param type 'int' is not supported",
                 id="param-type"),
    pytest.param('dynamics="any" />\n    <location', 'dynamics="linear" />\n    <location',
                 "param dynamics 'linear' is not supported", id="param-dynamics"),
    pytest.param('<location id="1" name="always">', "<location>", "location without id or name",
                 id="location-without-id"),
    pytest.param("x' == v &amp; v' == -9.81", "x' == v*v",
                 "location 'always': product of two variable expressions is not affine", id="location-expression"),
    pytest.param("x' == v &amp; v' == -9.81", "x' &lt;= v", "flow rows must look like \"x' == expr\"",
                 id="flow-relation"),
    pytest.param("x' == v &amp; v' == -9.81", "x == v", "flow assigns to unprimed 'x'", id="flow-unprimed"),
    pytest.param(' target="1"', "", "transition missing source or target", id="transition-without-target"),
    pytest.param("x == 0 &amp;", "x == x*x &amp;",
                 "transition 1->1: product of two variable expressions is not affine", id="transition-expression"),
    pytest.param("v := -0.75*v", "w := 1", "assignment to non-state 'w'", id="assignment-to-non-state"),
    pytest.param("v := -0.75*v", "v = 1", "assignment 'v = 1' is not of the form x := expr", id="assignment-form"),
])
def test_a_model_xml_that_parse_spaceex_rejects_is_an_input_error(old, new, message, tmp_path, capsys):
    assert old in BALL_XML
    path = tmp_path / "model.xml"
    path.write_text(BALL_XML.replace(old, new))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_expression_errors_carry_location_context():
    xml = BALL_XML.replace("x' == v &amp; v' == -9.81", "x' == v*v")
    with pytest.raises(XmlMalformed) as err:
        parse_spaceex(xml)
    assert "always" in str(err.value)


def test_nonstate_assignment_rejected():
    xml = BALL_XML.replace("v := -0.75*v", "w := 1")
    with pytest.raises(XmlMalformed):
        parse_spaceex(xml)


@pytest.mark.parametrize("bench", BenchmarkId, ids=lambda b: b.value)
def test_emission_roundtrip_is_structural_identity(bench):
    automaton = build(bench).automaton
    text = emit_spaceex(automaton)
    again = parse_spaceex(text)
    assert again == automaton
    # and re-emission is byte-identical
    assert emit_spaceex(again) == text


def test_names_with_quotes_survive_the_roundtrip():
    automaton = build_bouncing_ball().automaton
    (loc,) = automaton.locations
    renamed = dataclasses.replace(automaton, name='ball "two"', locations=(dataclasses.replace(loc, name='al"ways'),),
                                  transitions=tuple(dataclasses.replace(tr, source='al"ways', target='al"ways')
                                                    for tr in automaton.transitions))
    text = emit_spaceex(renamed)
    assert '<component id="ball &quot;two&quot;">' in text and 'name="al&quot;ways"' in text
    assert parse_spaceex(text) == renamed


def test_symbolic_constants_survive_the_roundtrip():
    automaton = build(BenchmarkId.BOUNCING_BALL2).automaton
    text = emit_spaceex(automaton)
    assert 'dynamics="const" value="0.75"' in text
    assert "-c*v" in text
    again = parse_spaceex(text)
    assert again.transitions[0].reset.matrix_terms["c"][1, 1] == -1.0


@pytest.mark.parametrize("assignment", ["v := c*v &amp; v := v", "v := v &amp; v' := 0", "v := 1 &amp; x := 0 &amp; v := 2"])
def test_a_second_assignment_to_one_variable_is_rejected(assignment):
    xml = BALL_XML.replace("v := -0.75*v", assignment).replace(
        '<param name="x"', '<param name="c" type="real" dynamics="const" value="0.75" />\n    <param name="x"')
    with pytest.raises(XmlMalformed, match="duplicate assignment to 'v'"):
        parse_spaceex(xml)


def test_duplicate_flow_row_is_rejected():
    xml = BALL_XML.replace("x' == v &amp; v' == -9.81", "x' == v &amp; x' == 0")
    with pytest.raises(XmlMalformed, match="duplicate flow row for 'x'"):
        parse_spaceex(xml)


def test_symbolic_input_coefficients_split_into_a_and_b_terms():
    xml = BALL_XML.replace(
        '<param name="x"',
        '<param name="u" type="real" dynamics="any" controlled="false" min="-1" max="1" />\n'
        '    <param name="c" type="real" dynamics="const" value="0.5" />\n    <param name="x"',
    ).replace("v' == -9.81", "v' == 2*c*v - c*u + 3*u - 9.81 + c")
    dyn = parse_spaceex(xml).locations[0].dynamics
    assert np.array_equal(dyn.a_terms["c"], [[0.0, 0.0], [0.0, 2.0]])
    assert np.array_equal(dyn.b_terms["c"], [[0.0], [-1.0]])
    assert np.array_equal(dyn.b, [[0.0], [3.0]])
    assert np.array_equal(dyn.c, [0.0, -9.81]) and np.array_equal(dyn.c_terms["c"], [0.0, 1.0])
    assert "v' == 2*c*v + 3*u - c*u - 9.81 + c" in emit_spaceex(parse_spaceex(xml))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_constant_is_rejected(value):
    xml = BALL_XML.replace("v := -0.75*v", "v := -c*v").replace(
        '<param name="x"', f'<param name="c" type="real" dynamics="const" value="{value}" />\n    <param name="x"')
    with pytest.raises(XmlMalformed, match=r"does not validate: \[non-finite\] constant 'c' is not finite"):
        parse_spaceex(xml)


def test_a_model_with_defects_raises_them_with_the_message_it_always_had():
    constant = '<param name="c" type="real" dynamics="const" value="{}" />\n    <param name="x"'
    xml = BALL_XML.replace('target="1"', 'target="9"').replace('<param name="x"', constant.format("nan"))
    with pytest.raises(ModelDefects) as error:
        parse_spaceex(xml)
    assert isinstance(error.value, XmlMalformed)
    assert str(error.value) == ("model does not validate: [non-finite] constant 'c' is not finite; "
                                "[dangling-name] transition #0 (always->9): target '9' is not a location")
    clean = parse_spaceex(BALL_XML.replace('<param name="x"', constant.format("0.75")))
    automaton = dataclasses.replace(
        clean, vars=VariableTable(clean.vars.state_vars, clean.vars.input_vars, {"c": float("nan")}),
        transitions=(dataclasses.replace(clean.transitions[0], target="9"),))
    assert error.value.defects == validate(automaton)
    assert [d.code for d in error.value.defects] == ["non-finite", "dangling-name"]


def test_flow_and_assignment_readers_give_the_ball_records_built_by_hand():
    table = VariableTable(("x", "v", "x1", "v1"), (), {"c": 0.75})
    a = np.zeros((4, 4))
    a[0, 1] = a[2, 3] = 1.0
    dynamics = parse_flow("x' == v & v' == -9.81 & x1' == v1 & v1' == -9.81", table)
    assert dynamics == AffineDynamics(a, np.zeros((4, 0)), [0.0, -9.81, 0.0, -9.81])
    r_matrix, term = np.eye(4), np.zeros((4, 4))
    r_matrix[1, 1], term[1, 1] = 0.0, -1.0
    reset = parse_assignment("v := -c*v", table)
    assert reset == ResetMap(r_matrix, np.zeros(4), {"c": term})
    assert reset.matrix_terms["c"][1, 1] == -1.0 and not reset.offset_terms
    ball = build_bouncing_ball().automaton
    assert ball.locations[0].dynamics == dynamics and ball.transitions[0].reset == reset


def test_an_empty_assignment_assigns_nothing():
    table = VariableTable(("x", "v"))
    assert parse_assignment("", table) is None
    assert parse_assignment("  ", table) is None


def test_transitions_that_assign_nothing_share_one_identity_reset():
    text = (CORPUS_DIR / "tank3" / "model.xml").read_text()
    assert "<assignment>" not in text
    transitions = parse_spaceex(text).transitions
    assert len(transitions) == 24
    assert len({id(t.reset) for t in transitions}) == 1
    assert transitions[0].reset.is_identity
