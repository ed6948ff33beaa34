"""SpaceEx-style XML model reading and writing.

Supported subset (documented in docs/formats.md): one flat component whose
params are real scalars (dynamics "any" for variables, "const" for named
constants; ``controlled="false"`` marks an input and may carry ``min``/
``max`` range attributes), locations with invariant and flow text, and
transitions with guard and assignment text. Network bindings and
synchronizing compositions are out of subset and rejected hard.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .errors import ModelDefects, UnsupportedFeature, XmlMalformed
from .expressions import (
    Compare,
    Conjunction,
    Ident,
    dynamics_from_forms,
    flow_rows,
    format_condition,
    format_number,
    linear_form,
    parse_condition,
    parse_expression,
    reset_from_forms,
    reset_rows,
    split_conjuncts,
)
from .ir import (
    AffineDynamics,
    HybridAutomaton,
    Location,
    ResetMap,
    Transition,
    VariableTable,
    validate,
)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _children(elem) -> dict:
    """The children of ``elem`` by local tag name, each name's in document order."""
    out: dict = {}
    for child in elem:
        out.setdefault(_localname(child.tag), []).append(child)
    return out


def _text(children: dict, name) -> str | None:
    """The text of the first of ``children`` named ``name``: "" when it has none, None when there is no such child."""
    nodes = children.get(name)
    return nodes[0].text or "" if nodes else None


def parse_spaceex(xml_text: str) -> HybridAutomaton:
    """Parse the supported XML subset into a validated automaton.

    Records are built through the IR's public constructors; ``validate``
    checks them, and an automaton with defects raises ``ModelDefects``,
    which carries them.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise XmlMalformed(f"not well-formed XML: {exc}") from exc

    if _localname(root.tag) != "sspaceex":
        raise XmlMalformed(f"expected <sspaceex> root, found <{_localname(root.tag)}>")
    components = _children(root).get("component")
    if not components:
        raise XmlMalformed("no <component> element")
    if len(components) > 1:
        raise UnsupportedFeature("multiple components (networks) are not supported")
    comp = components[0]
    elements = _children(comp)
    if elements.get("bind"):
        raise UnsupportedFeature("component bindings are not supported")
    name = comp.get("id") or "model"

    state_vars: list = []
    input_vars: list = []
    constants: dict = {}
    input_range: dict = {}
    for param in elements.get("param", ()):
        pname = param.get("name")
        if not pname:
            raise XmlMalformed("param without a name")
        ptype = param.get("type", "real")
        if ptype not in ("real", "label"):
            raise UnsupportedFeature(f"param type {ptype!r} is not supported")
        if ptype == "label":
            continue  # plain transition labels; synchronization is rejected at bind level
        dynamics = param.get("dynamics", "any")
        if dynamics == "const":
            constants[pname] = float(param.get("value", "0"))
        elif dynamics == "any":
            if param.get("controlled", "true") == "false":
                input_vars.append(pname)
                input_range[pname] = (
                    float(param.get("min", "0")),
                    float(param.get("max", "0")),
                )
            else:
                state_vars.append(pname)
        else:
            raise UnsupportedFeature(f"param dynamics {dynamics!r} is not supported")

    table = VariableTable(state_vars, input_vars, constants)
    identity = ResetMap.identity(table.n)  # shared by the transitions that assign nothing

    locations: list = []
    id_to_name: dict = {}
    for loc_elem in elements.get("location", ()):
        loc_id = loc_elem.get("id")
        loc_name = loc_elem.get("name") or loc_id
        if loc_id is None and loc_name is None:
            raise XmlMalformed("location without id or name")
        id_to_name[loc_id] = loc_name
        id_to_name[loc_name] = loc_name
        children = _children(loc_elem)
        try:
            invariant = parse_condition(_text(children, "invariant") or "", table)
            dynamics = parse_flow(_text(children, "flow") or "", table)
        except XmlMalformed:
            raise
        except Exception as exc:
            raise XmlMalformed(f"location {loc_name!r}: {exc}") from exc
        locations.append(Location(loc_name, invariant, dynamics))

    transitions: list = []
    for tr_elem in elements.get("transition", ()):
        src = tr_elem.get("source")
        dst = tr_elem.get("target")
        if src is None or dst is None:
            raise XmlMalformed("transition missing source or target")
        children = _children(tr_elem)
        label = _text(children, "label")
        label = label.strip() if label else None
        try:
            guard = parse_condition(_text(children, "guard") or "", table)
            reset = parse_assignment(_text(children, "assignment") or "", table) or identity
        except XmlMalformed:
            raise
        except Exception as exc:
            raise XmlMalformed(f"transition {src}->{dst}: {exc}") from exc
        transitions.append(Transition(id_to_name.get(src, src), id_to_name.get(dst, dst), guard, reset, label))

    automaton = HybridAutomaton(name, table, locations, transitions, input_range)
    defects = validate(automaton)
    if defects:
        raise ModelDefects(defects)
    return automaton


def parse_flow(text: str, table: VariableTable) -> AffineDynamics:
    """Flow text: ``x' == affine-expr`` rows joined by &, one per variable at most; a missing row is x' == 0."""
    ast = parse_expression(text, table)
    forms: dict = {}
    for part in (ast.parts if isinstance(ast, Conjunction) else (ast,)):
        if not isinstance(part, Compare) or part.relation != "==" or not isinstance(part.left, Ident):
            raise XmlMalformed("flow rows must look like \"x' == expr\"")
        lhs = part.left.name
        if not lhs.endswith("'"):
            raise XmlMalformed(f"flow assigns to unprimed {lhs!r}")
        var = lhs.rstrip("'")
        if var not in table.state_vars:
            raise XmlMalformed(f"flow assigns to non-state {var!r}")
        if var in forms:
            raise XmlMalformed(f"duplicate flow row for {var!r}")
        forms[var] = linear_form(part.right, table, allow_inputs=True)
    return dynamics_from_forms(forms, table)


def parse_assignment(text: str, table: VariableTable) -> ResetMap | None:
    """Assignment text: ``x := expr`` statements joined by &, one per variable at most; None if none."""
    forms: dict = {}
    for stmt in split_conjuncts(text):
        if ":=" not in stmt:
            raise XmlMalformed(f"assignment {stmt!r} is not of the form x := expr")
        lhs_text, rhs_text = stmt.split(":=", 1)
        var = lhs_text.strip().rstrip("'")
        if var not in table.state_vars:
            raise XmlMalformed(f"assignment to non-state {var!r}")
        if var in forms:
            raise XmlMalformed(f"duplicate assignment to {var!r}")
        forms[var] = linear_form(parse_expression(rhs_text, table), table, allow_inputs=False)
    return reset_from_forms(forms, table) if forms else None


# ---------------------------------------------------------------------------
# Emission


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_spaceex(automaton: HybridAutomaton) -> str:
    """Deterministic XML of an automaton in the supported subset; same input, same bytes.

    Settings and the initial set live in the cfg format.
    """
    table = automaton.vars
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<sspaceex version="0.2" math="SpaceEx">',
        f'  <component id="{_escape(automaton.name)}">',
    ]
    for var in table.state_vars:
        lines.append(f'    <param name="{var}" type="real" dynamics="any" />')
    for var in table.input_vars:
        lo, hi = automaton.input_range[var]
        lines.append(
            f'    <param name="{var}" type="real" dynamics="any" controlled="false" '
            f'min="{format_number(lo)}" max="{format_number(hi)}" />'
        )
    for cname in sorted(table.constants):
        lines.append(
            f'    <param name="{cname}" type="real" dynamics="const" '
            f'value="{format_number(table.constants[cname])}" />'
        )
    loc_ids = {loc.name: str(i + 1) for i, loc in enumerate(automaton.locations)}
    for loc in automaton.locations:
        lines.append(f'    <location id="{loc_ids[loc.name]}" name="{_escape(loc.name)}">')
        if not loc.invariant.is_true:
            inv = format_condition(loc.invariant, table.state_vars)
            lines.append(f"      <invariant>{_escape(inv)}</invariant>")
        flow = " & ".join(f"{var}' == {rhs}" for var, rhs in flow_rows(loc.dynamics, table))
        if flow:
            lines.append(f"      <flow>{_escape(flow)}</flow>")
        lines.append("    </location>")
    for tr in automaton.transitions:
        lines.append(
            f'    <transition source="{loc_ids[tr.source]}" target="{loc_ids[tr.target]}">'
        )
        if tr.label:
            lines.append(f"      <label>{_escape(tr.label)}</label>")
        if not tr.guard.is_true:
            guard = format_condition(tr.guard, table.state_vars)
            lines.append(f"      <guard>{_escape(guard)}</guard>")
        reset = " & ".join(f"{var} := {rhs}" for var, rhs in reset_rows(tr.reset, table.state_vars))
        if reset:
            lines.append(f"      <assignment>{_escape(reset)}</assignment>")
        lines.append("    </transition>")
    lines.append("  </component>")
    lines.append("</sspaceex>")
    return "\n".join(lines) + "\n"
