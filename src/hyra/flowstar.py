"""Flow*-style textual model emission.

Writes the classic ``hybrid reachability { ... } unsafe { ... }`` layout
with ``lti ode`` mode blocks and interval aggregation on jumps. Symbolic
constants are resolved to numbers first (the format has no symbol table).
Emission is a pure function of the bundle: identical input gives
byte-identical output. Inputs, when present, are declared with an
``input var`` line; this is a documented subset extension, not a claim of
tool compatibility.
"""

from __future__ import annotations

from .expressions import flow_rows, format_linear, format_number, reset_rows
from .ir import Condition, ModelBundle

_SETTING_TAIL = (
    "  remainder estimation 1e-4",
    "  identity precondition",
)
_SETTING_TAIL2 = (
    "  fixed orders 4",
    "  cutoff 1e-15",
    "  precision 53",
)


def _constraint_lines(cond: Condition, names, indent: str) -> list:
    lines = []
    for con in cond.constraints:
        lhs = format_linear(names, con.coeffs)
        relation = "=" if con.relation == "==" else con.relation
        lines.append(f"{indent}{lhs} {relation} {format_number(con.bound)}")
    return lines


def emit_flowstar(bundle: ModelBundle) -> str:
    bundle = bundle.resolved
    automaton = bundle.automaton
    table = automaton.vars
    settings = bundle.settings
    names = table.state_vars
    plot_vars = settings.output_vars or (names + names)[:2]

    lines = ["hybrid reachability", "{"]
    lines.append(f" state var {', '.join(names)}")
    for var in table.input_vars:
        lo, hi = automaton.input_range[var]
        lines.append(f" input var {var} in [{format_number(lo)}, {format_number(hi)}]")
    lines.append("")
    lines.append(" setting")
    lines.append(" {")
    lines.append(f"  fixed steps {format_number(settings.step)}")
    lines.append(f"  time {format_number(settings.horizon)}")
    lines.extend(_SETTING_TAIL)
    lines.append(f"  gnuplot octagon {plot_vars[0]}, {plot_vars[1]}")
    lines.extend(_SETTING_TAIL2)
    lines.append(f"  output {automaton.name}")
    lines.append(f"  max jumps {settings.max_jumps}")
    lines.append("  print on")
    lines.append(" }")
    lines.append("")
    lines.append(" modes")
    lines.append(" {")
    for loc in automaton.locations:
        lines.append(f"  {loc.name}")
        lines.append("  {")
        lines.append("   lti ode")
        lines.append("   {")
        lines.extend(f"    {var}' = {rhs}" for var, rhs in flow_rows(loc.dynamics, table))
        lines.append("   }")
        lines.append("   inv")
        lines.append("   {")
        lines.extend(_constraint_lines(loc.invariant, names, "    "))
        lines.append("   }")
        lines.append("  }")
    lines.append(" }")
    lines.append("")
    lines.append(" jumps")
    lines.append(" {")
    for tr in automaton.transitions:
        lines.append(f"  {tr.source} -> {tr.target}")
        guard_terms = _constraint_lines(tr.guard, names, "")
        lines.append(f"  guard {{ {'   '.join(guard_terms)} }}" if guard_terms else "  guard { }")
        reset_terms = [f"{var}' := {rhs}" for var, rhs in reset_rows(tr.reset, names)]
        lines.append(f"  reset {{ {'   '.join(reset_terms)} }}" if reset_terms else "  reset { }")
        lines.append("  interval aggregation")
    lines.append(" }")
    lines.append("")
    lines.append(" init")
    lines.append(" {")
    lines.append(f"  {bundle.initial.location}")
    lines.append("  {")
    for i, var in enumerate(names):
        lo = format_number(bundle.initial.box.lo[i])
        hi = format_number(bundle.initial.box.hi[i])
        lines.append(f"   {var} in [{lo}, {hi}]")
    lines.append("  }")
    lines.append(" }")
    lines.append("}")
    if settings.forbidden is not None:
        lines.append("")
        lines.append("unsafe")
        lines.append("{")
        for loc in automaton.locations:
            lines.append(f" {loc.name}")
            lines.append(" {")
            lines.extend(_constraint_lines(settings.forbidden, names, "  "))
            lines.append(" }")
        lines.append("}")
    return "\n".join(lines) + "\n"
