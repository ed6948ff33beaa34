"""The expression front end against the reference copy of its earlier form in support.py.

Thousands of seeded texts go through both: valid rows with symbolic
constants, products of constants, divisions by literals, unary-minus
chains, inputs in constraints, primed and unknown names, comparisons inside
arithmetic, a syntax error at every token position of valid texts, and
nesting thousands of levels deep. Forms and rows must be bit-identical,
compared with ``tobytes`` so that the sign of a zero and of a NaN counts,
and where the reference raises, the new code must raise the same exception
type with the same message and position.
"""

import random
import struct
from collections import Counter

import numpy as np
import pytest

import support as ref
from hyra import expressions as new
from hyra.ir import VariableTable

TABLE = VariableTable(("x", "v", "y"), ("u",), {"c": 0.75, "k": -2.0})
STATE, CONSTANTS = list(TABLE.state_vars), list(TABLE.constants)
NUMBERS = ["0", "1", "2", "2.5", ".5", "5.", "0.0", "1e3", "1E-3", "2.5e+2", "1505", "0.1", "9.81",
           "1e999", "1e-400", "3e308", "1e-320"]
RELATIONS = ["<=", "<", ">=", ">", "==", "="]
SPACES = ["", " ", " ", "  ", "\t", "\n"]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _array_key(a) -> tuple:
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def _scalar_terms_key(terms: dict) -> list:
    return [(k, _bits(v)) for k, v in terms.items()]


def _array_terms_key(terms: dict) -> list:
    return [(k, _array_key(v)) for k, v in terms.items()]


def _form_parts(form) -> tuple:
    """``(base, terms, coeffs)`` of a form of either side: the reference's ``LinForm`` or the triple itself."""
    return (form.const.base, form.const.terms, form.coeffs) if isinstance(form, ref.LinForm) else form


def _form_key(form) -> tuple:
    base, terms, coeffs = _form_parts(form)
    return (_bits(base), _scalar_terms_key(terms),
            [(name, _bits(s.base), _scalar_terms_key(s.terms)) for name, s in coeffs.items()])


def _condition_key(cond) -> list:
    return [(_array_key(c.coeffs), c.relation, _bits(c.bound), _array_terms_key(c.coeff_terms),
             _scalar_terms_key(c.bound_terms)) for c in cond.constraints]


def _dynamics_key(dyn) -> tuple:
    return (_array_key(dyn.a), _array_key(dyn.b), _array_key(dyn.c),
            _array_terms_key(dyn.a_terms), _array_terms_key(dyn.b_terms), _array_terms_key(dyn.c_terms))


def _reset_key(reset) -> tuple:
    return (_array_key(reset.r_matrix), _array_key(reset.r_offset),
            _array_terms_key(reset.matrix_terms), _array_terms_key(reset.offset_terms))


def _row_key(form) -> tuple:
    """The reference ``affine_row`` of a form of either side over the states and inputs, its values as given."""
    base, terms, coeffs = _form_parts(form)
    row = ref.affine_row(ref.LinForm(new.SymScalar(base, terms), coeffs), TABLE.state_vars + TABLE.input_vars)
    coeffs, coeff_terms, const, const_terms = row
    return _array_key(coeffs), _array_terms_key(coeff_terms), _bits(const), _scalar_terms_key(const_terms)


def _outcome(call, key=lambda value: value):
    """("ok", key(result)) or ("error", type, message, position) of ``call()``."""
    try:
        return "ok", key(call())
    except Exception as exc:  # any exception must match the reference's
        return "error", type(exc), str(exc), getattr(exc, "position", None)


def _parts(ast) -> tuple:
    return ast.parts if isinstance(ast, (ref.Conjunction, new.Conjunction)) else (ast,)


def _sides(module, text: str) -> list:
    """The arithmetic operands of each comparison of ``text`` as ``module`` parses it, or [] if it does not."""
    try:
        ast = module.parse_expression(text, TABLE)
    except Exception:  # the parse outcome is compared on its own
        return []
    sides = []
    for part in _parts(ast):
        if isinstance(part, (ref.Compare, new.Compare)):
            sides.extend((part.left, part.right))
        else:
            sides.append(part)
    return sides


def assert_same(text: str) -> None:
    """Every output of the two front ends on ``text`` is the same, bit for bit, error for error."""
    got = _outcome(lambda: new.parse_expression(text, TABLE), repr)
    assert got == _outcome(lambda: ref.parse_expression(text, TABLE), repr), text
    assert _outcome(lambda: new.parse_expression(text), repr) == _outcome(lambda: ref.parse_expression(text), repr)
    got = _outcome(lambda: new.parse_condition(text, TABLE), _condition_key)
    assert got == _outcome(lambda: ref.parse_condition(text, TABLE), _condition_key), text
    new_sides, ref_sides = _sides(new, text), _sides(ref, text)
    assert len(new_sides) == len(ref_sides)
    for allow_inputs in (True, False):
        for mine, theirs in zip(new_sides, ref_sides):
            got = _outcome(lambda: new.linear_form(mine, TABLE, allow_inputs), _form_key)
            assert got == _outcome(lambda: ref.linear_form(theirs, TABLE, allow_inputs), _form_key), text
    assert _stacked_outcomes(new, new_sides) == _stacked_outcomes(ref, ref_sides), text


def _stacked_outcomes(module, sides: list) -> list:
    """The ``affine_row`` of each side's form, then the flow and the reset whose rows are the first sides."""
    out = [_outcome(lambda: module.linear_form(side, TABLE), _row_key) for side in sides]
    rows = dict(zip(STATE, sides))
    out.append(_outcome(lambda: module.dynamics_from_forms(
        {var: module.linear_form(side, TABLE, True) for var, side in rows.items()}, TABLE), _dynamics_key))
    out.append(_outcome(lambda: module.reset_from_forms(
        {var: module.linear_form(side, TABLE, False) for var, side in rows.items()}, TABLE), _reset_key))
    return out


# ---------------------------------------------------------------------------
# Seeded text generators


def _number(rng) -> str:
    return rng.choice(NUMBERS)


def _term(rng, depth: int) -> str:
    kind = rng.randrange(12 if depth < 3 else 8)
    if kind == 0:
        return _number(rng)
    if kind in (1, 2):
        return rng.choice(STATE)
    if kind == 3:
        return rng.choice(CONSTANTS)
    if kind == 4:
        return f"{_number(rng)}*{rng.choice(STATE)}"
    if kind == 5:
        return f"{rng.choice(CONSTANTS)}*{rng.choice(STATE)}"
    if kind == 6:
        return f"{rng.choice(STATE)}*{_number(rng)}*{rng.choice(CONSTANTS)}"
    if kind == 7:
        return f"{rng.choice(STATE)}/{_number(rng)}"
    if kind == 8:
        return f"({_sum(rng, depth + 1)})"
    if kind == 9:
        return "-" * rng.randrange(1, 5) + _term(rng, depth + 1)
    if kind == 10:
        return f"{_number(rng)}*({_sum(rng, depth + 1)})"
    return f"({_sum(rng, depth + 1)})/{_number(rng)}"


def _sum(rng, depth: int = 0) -> str:
    text = _term(rng, depth)
    for _ in range(rng.randrange(0, 5)):
        text += f" {rng.choice('+-')} {_term(rng, depth)}"
    return text


def _condition(rng) -> str:
    parts = [f"{_sum(rng)} {rng.choice(RELATIONS)} {_sum(rng)}" for _ in range(rng.randrange(1, 4))]
    return f" {rng.choice(['&', '&&'])} ".join(f"({p})" if rng.random() < 0.2 else p for p in parts)


def _respaced(rng, text: str) -> str:
    """``text`` with its token spacing redrawn: no space, spaces, tabs or newlines."""
    return "".join(rng.choice(SPACES) + value for _, value, _ in ref._tokenize(text)[:-1])


def valid_rows(rng) -> str:
    return _condition(rng)


def constant_products(rng) -> str:
    a, b = rng.choice(CONSTANTS), rng.choice(CONSTANTS)
    shapes = [f"{a}*{b}*x <= 1", f"{a}*{b} <= x", f"x*{a}*{b} >= 0", f"({a} + 1)*({b} - 2)*v == y",
              f"{a}*({b}*x) <= 1", f"2*{a}*3*{b} <= y", f"x*{a} + {a}*{b} <= 0"]
    return rng.choice(shapes)


def literal_divisions(rng) -> str:
    by = rng.choice(["0", "-0.0", "0.0", "(1-1)", "(c-c)", "-(0)", "2", "-4", "1e-320", "1e999", "c", "x",
                     "(x-x)", "(2*c)", "0.5", "3e308"])
    top = rng.choice(["x", "c", "1", "x + c", "2*v - k", "0", "-x", "1e999*x"])
    return f"({top})/{by} {rng.choice(RELATIONS)} {_sum(rng)}"


def unary_chains(rng) -> str:
    signs = "".join(rng.choice("-+") for _ in range(rng.randrange(1, 12)))
    operand = rng.choice(["x", "c", "0", "0.0", "(x - x)", "(0 - 0)", "2*c*v", "(c)", "1e999"])
    return f"{signs}{operand} {rng.choice(RELATIONS)} {rng.choice(['-', '', '--'])}{_number(rng)}"


def inputs_in_constraints(rng) -> str:
    return rng.choice(["u <= 1", "x + u >= 0", "2*u - c*u == 0", "x <= 1 & u >= 0", "c*u <= k",
                       f"{_sum(rng)} + u <= 1", "(u - u) <= 1", "0*u <= 1"])


def primed_and_unknown_names(rng) -> str:
    name = rng.choice(["x'", "v''", "c'", "u'", "zz", "x1", "X", "_x", "xx'", "y'''"])
    return rng.choice([f"{name} <= 1", f"x + {name} >= 0", f"{name} == {name}", f"2*{name} <= c",
                       f"x <= 1 & {name} > 0"])


def comparisons_in_arithmetic(rng) -> str:
    return rng.choice(["x + (v <= 1) <= 2", "(x <= 1 & v >= 2) * 3 <= 1", "(x <= 1) <= (v >= 2)",
                       "2*(x == 1) >= 0", "-(x < 1) < 0", "(x <= 1 & v >= 2) <= 1", "x <= (c <= 1)",
                       "(x & v) <= 1", "x", "2*x + c", "(x <= 1) & v"])


def syntax_error_variants(rng) -> list:
    """A valid text broken once at every token position: each token replaced by a character that
    starts no token, dropped, or preceded by a stray operator, and the text cut after it."""
    text = _condition(rng)
    values = [value for _, value, _ in ref._tokenize(text)[:-1]]
    out = []
    for i in range(len(values) + 1):
        head, tail = values[:i], values[i:]
        bad = rng.choice(["?", "!", "#", ":", "'", ".", "$", "é", ","])
        stray = rng.choice(["*", ")", "(", "&", "<=", "+", ":=", "/"])
        out.append(" ".join(head + [bad] + tail[1:]))
        out.append(" ".join(head + tail[1:]))
        out.append(" ".join(head + [stray] + tail))
        out.append(" ".join(head))
    return out


GENERATORS = [valid_rows, constant_products, literal_divisions, unary_chains, inputs_in_constraints,
              primed_and_unknown_names, comparisons_in_arithmetic]


def generated_texts(seed: int) -> list:
    rng = random.Random(seed)
    texts = []
    for _ in range(600):
        texts.append(rng.choice(GENERATORS)(rng))
        if rng.random() < 0.3:
            texts.append(_respaced(rng, texts[-1]))
    texts.extend(syntax_error_variants(rng))
    return texts


SEEDS = range(2)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_texts_give_the_reference_forms_rows_and_errors(seed):
    texts = generated_texts(seed)
    assert len(texts) >= 1000
    for text in texts:
        assert_same(text)


def test_generated_texts_reach_every_outcome():
    """The texts hold successes and each kind of reader error, so the comparison is not vacuous."""
    outcomes = Counter()
    for seed in SEEDS:
        for text in generated_texts(seed):
            result = _outcome(lambda: ref.parse_condition(text, TABLE))
            outcomes[result[0] if result[0] == "ok" else result[1].__name__] += 1
    assert sum(outcomes.values()) >= 2000
    assert set(outcomes) == {"ok", "ExpressionSyntaxError", "NonlinearUnsupported", "UnknownIdentifier"}


@pytest.mark.parametrize("text", [
    "(" * 3000 + "v" + ")" * 3000 + " >= 1",
    "+".join(["v"] * 3000) + " >= 1",
    "v >= " + "-".join(["c"] * 3000),
    "-" * 3000 + "x <= 1",
    "(-" * 1500 + "x" + ")" * 1500 + " <= 1",
    "x" + "*2" * 3000 + " <= 1",
    "x <= 1 & " + "(" * 3000,
], ids=["parentheses", "long-sum", "long-difference", "unary-chain", "mixed-nesting", "long-product",
        "unclosed"])
def test_nesting_thousands_deep_gives_the_reference_error(text):
    outcome = _outcome(lambda: new.parse_condition(text, TABLE))
    assert outcome[0] == "error" and "nests too deeply" in outcome[2]
    assert_same(text)
