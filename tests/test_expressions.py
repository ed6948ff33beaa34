import itertools

import numpy as np
import pytest

from hyra.errors import ExpressionSyntaxError, NonlinearUnsupported, UnknownIdentifier
from hyra.expressions import (
    Add,
    Compare,
    Conjunction,
    Ident,
    Mul,
    Neg,
    Num,
    Sub,
    dynamics_from_forms,
    flow_rows,
    format_condition,
    format_linear,
    format_number,
    format_rows,
    format_table,
    linear_form,
    parse_condition,
    parse_expression,
    reset_rows,
)
from hyra.ir import AffineDynamics, ResetMap, VariableTable

TABLE = VariableTable(("x", "v"), ("u",), {"c": 0.75})


def test_guard_conjunction_parses_to_two_constraints():
    cond = parse_condition("x == 0 & v <= 0", TABLE)
    assert len(cond.constraints) == 2
    eq, le = cond.constraints
    assert eq.relation == "==" and np.array_equal(eq.coeffs, [1.0, 0.0]) and eq.bound == 0.0
    assert le.relation == "<=" and np.array_equal(le.coeffs, [0.0, 1.0]) and le.bound == 0.0


def test_empty_text_is_the_true_condition():
    cond = parse_condition("", TABLE)
    assert cond.is_true
    assert parse_expression("   ", TABLE) == Conjunction(())


def test_ast_nodes_compare_hash_print_and_match_by_their_fields():
    x, three = Ident("x"), Num(3.0)
    assert Sub(x, three) == Sub(Ident("x"), Num(3.0)) and hash(Sub(x, three)) == hash(Sub(Ident("x"), Num(3.0)))
    assert Add(x, three) != Sub(x, three) and Neg(x) != x
    assert {Sub(x, three): 1}[parse_expression("x - 3", TABLE)] == 1
    assert repr(Sub(x, three)) == "Sub(left=Ident(name='x'), right=Num(value=3.0))"
    assert repr(Conjunction(())) == "Conjunction(parts=())"
    match parse_expression("2 * v <= x", TABLE):
        case Compare(Mul(Num(2.0), Ident("v")), "<=", Ident(name)):
            assert name == "x"
        case other:
            pytest.fail(f"{other!r} matches no Compare pattern")
    with pytest.raises(AttributeError):
        x.other = 1  # slotted


def test_variable_product_is_rejected():
    with pytest.raises(NonlinearUnsupported):
        parse_condition("x*v <= 1", TABLE)


def test_syntax_error_carries_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x + ", TABLE)
    assert err.value.position == 4
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression("x ? 1", TABLE)
    assert err.value.position == 2


def test_unknown_identifier_is_rejected():
    with pytest.raises(UnknownIdentifier):
        parse_expression("x + zz", TABLE)


def test_single_equals_means_comparison():
    cond = parse_condition("x = 1", TABLE)
    assert cond.constraints[0].relation == "=="


def test_double_ampersand_and_parentheses():
    cond = parse_condition("(x <= 1) && (v >= -2)", TABLE)
    assert len(cond.constraints) == 2
    assert cond.constraints[1].bound == -2.0


def test_precedence_and_division():
    # unary minus binds tighter than *, / folds constants
    ast = parse_expression("-x*2 + 6/3", TABLE)
    base, _, coeffs = linear_form(ast, TABLE)
    assert coeffs["x"].base == -2.0
    assert base == 2.0


def test_constants_stay_symbolic_in_coefficients():
    cond = parse_condition("v <= -c*x", TABLE)
    con = cond.constraints[0]
    # moved to the left side: v + c*x <= 0
    assert con.coeffs[1] == 1.0 and con.coeffs[0] == 0.0
    assert np.array_equal(con.coeff_terms["c"], [1.0, 0.0])
    resolved = con.resolve({"c": 0.75})
    assert resolved.coeffs[0] == 0.75


def test_product_of_symbolic_constants_rejected():
    with pytest.raises(NonlinearUnsupported):
        linear_form(parse_expression("c*c*x", TABLE), TABLE)


def test_division_by_variable_rejected():
    with pytest.raises(NonlinearUnsupported):
        linear_form(parse_expression("1/x", TABLE), TABLE)


def test_inputs_allowed_in_flows_only():
    _, _, coeffs = linear_form(parse_expression("x + 2*u", TABLE), TABLE, allow_inputs=True)
    assert coeffs["u"].base == 2.0
    with pytest.raises(NonlinearUnsupported):
        parse_condition("u <= 1", TABLE)


def test_format_number_shortest_roundtrip():
    assert format_number(0.75) == "0.75"
    assert format_number(12.0) == "12"
    assert format_number(-9.81) == "-9.81"
    assert format_number(-0.0) == "0"
    assert float(format_number(0.1 + 0.2)) == 0.1 + 0.2


def _reference_rows(values):
    return [",".join(format_number(v) for v in row) for row in values]


def _assert_same_rows(got: list, want: list) -> None:
    """Every row equal, failing on the first row that differs rather than on a diff of the whole lists."""
    first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert first is None, f"row {first}: {got[first]!r} != {want[first]!r}"
    assert len(got) == len(want)


def test_format_rows_matches_format_number_on_random_bit_patterns():
    rng = np.random.default_rng(20181)
    bits = rng.integers(0, 2**64, size=(40_000, 5), dtype=np.uint64)
    with np.errstate(invalid="ignore"):  # some patterns are signalling NaNs
        values = bits.view(np.float64)
        _assert_same_rows(format_rows(values), _reference_rows(values))


def test_format_rows_matches_format_number_on_decimal_like_values():
    rng = np.random.default_rng(20182)
    digits = rng.integers(1, 18, 60_000)
    mantissas = [int(rng.integers(1, 10 ** int(k))) for k in digits]
    exponents = rng.integers(-9, 23, 60_000) - digits + 1  # leading digit in 1e-9..1e22
    signs = rng.choice(["", "-"], 60_000)
    values = np.array(
        [f"{s}{m}e{e}" for s, m, e in zip(signs, mantissas, exponents)], dtype=float
    ).reshape(-1, 6)
    _assert_same_rows(format_rows(values), _reference_rows(values))


EDGE_VALUES = [
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e-10, 1e-9, 1.5e-9, 9.99e-9,
    1e-5, 1.5e-5, 9.99e-5, 1e-4, 1.5e-4, 0.1, 1.0, 3.0, 12.0, 1234567.0, 1e15,
    9007199254740993.0, 9999999999999998.0, 1e16, 1.5e16, 1e22, 1e23, 1.7976931348623157e308,
    float("nan"), float("inf"),
]


def test_format_rows_edge_values():
    values = np.array(EDGE_VALUES + [-v for v in EDGE_VALUES])
    near = [np.nextafter(b, side) for b in (1e-9, 1e-5, 1e-4, 1e16) for side in (0.0, np.inf)]
    values = np.concatenate([values, near, np.negative(near)])
    for shaped in (values.reshape(-1, 1), values.reshape(1, -1), values.reshape(-1, 2)):
        assert format_rows(shaped) == _reference_rows(shaped)
    for v in values:  # alone or next to one large value, so that no other value switches a fix-up on
        for row in ([v], [v, 1e22], [1e22, v]):
            assert format_rows([row]) == _reference_rows([row])
    assert format_rows([[-0.0, 1e22, 1.5e-5, 2.0, float("-inf"), float("nan")]]) == [
        "0,1e+22,1.5e-05,2,-inf,nan"
    ]


def test_format_rows_empty_and_single_column():
    assert format_rows(np.zeros((0, 3))) == []
    assert format_rows(np.zeros((0, 1))) == []
    assert format_rows(np.zeros((2, 0))) == ["", ""]
    assert format_rows(np.array([[7.0], [0.5], [1e-7]])) == ["7", "0.5", "1e-07"]


# cells whose orjson text needs a fix-up: integral ones lose ".0", special ones
# are filled in, big ones gain "+" and tiny ones must keep their "-"
FIXED_CELLS = {
    "integral": [3.0, -12.0, 0.0, 1e15],
    "special": [1.5e-5, float("nan"), -float("inf"), 2e-9],
    "big": [1e22, -1.5e16],
    "tiny": [1e-300, -5e-324],
}


@pytest.mark.parametrize("column", ["first", "last", "every"], ids=lambda c: f"{c}-column")
@pytest.mark.parametrize("rows", ["no", "one", "every"], ids=lambda r: f"{r}-row")
@pytest.mark.parametrize("kind", FIXED_CELLS)
def test_format_rows_fixes_the_rows_that_hold_such_a_cell(kind, rows, column):
    values = np.random.default_rng(5).integers(100, 900, (5, 4)) / 1000.0 + 5e-4  # no cell needs a fix-up
    cells = itertools.cycle(FIXED_CELLS[kind])
    for i in {"no": [], "one": [2], "every": range(5)}[rows]:
        for j in {"first": [0], "last": [3], "every": range(4)}[column]:
            values[i, j] = next(cells)
    assert format_rows(values) == _reference_rows(values)


def test_format_rows_mixed_rows_and_shapes():
    values = np.array([
        [float("nan"), 1.5e-5, -float("inf"), 2e-7],  # every cell special
        [1e22, 1e-300, 0.5, -1.5e16],  # big and tiny cells in one row
        [1.0, 2.0, -0.0, 1e15],  # every cell integral
        [0.25, 3.0, 1e-5, 7.0],
        [0.125, 0.5, 0.75, 0.875],  # nothing to fix
    ])
    assert format_rows(values) == _reference_rows(values) == [
        "nan,1.5e-05,-inf,2e-07",
        "1e+22,1e-300,0.5,-1.5e+16",
        "1,2,0,1000000000000000",
        "0.25,3,1e-05,7",
        "0.125,0.5,0.75,0.875",
    ]
    for j in range(4):
        assert format_rows(values[:, j:j + 1]) == _reference_rows(values[:, j:j + 1])
    assert format_rows(values[:0]) == []
    assert format_rows(values[:, :0]) == [""] * 5


def test_format_table_joins_the_blocks_of_each_row():
    times = np.array([[0.5], [2.0], [1e-7]])
    states = np.array([[1e22, 1.5e-5], [3.0, -0.0], [0.1, float("nan")]])
    text = format_table(["t", "name", "x", "y"], [times, ["a", "b", ""], states])
    assert text == "t,name,x,y\n0.5,a,1e+22,1.5e-05\n2,b,3,0\n1e-07,,0.1,nan\n"
    assert format_table(("x",), [times]) == "x\n0.5\n2\n1e-07\n"
    assert format_table(["t", "name"], [np.zeros((0, 1)), []]) == "t,name\n"
    with pytest.raises(ValueError):  # blocks of different lengths
        format_table(["t", "name"], [times, ["a", "b"]])


def test_format_linear_readable_rows():
    text = format_linear(("x", "v"), [1505.0, -1.0], None, -9.81)
    assert text == "1505*x - v - 9.81"
    assert format_linear(("x",), [0.0]) == "0"


def test_format_linear_writes_symbolic_parts_after_each_term():
    text = format_linear(("x", "v"), [0.0, 2.0], {"k": [1.0, 0.0], "c": [0.0, -0.5]}, 1.0, {"c": -1.0, "k": 0.0})
    assert text == "k*x + 2*v - 0.5*c*v + 1 - c"
    assert format_linear((), (), None, 0.5, {"c": 2.0}) == "0.5 + 2*c"
    assert format_linear((), (), None, 0.0, {"c": -1.0}) == "-c"
    assert format_linear((), (), None, -0.0) == "0"


def test_a_flow_row_puts_each_coefficient_in_its_column():
    form = linear_form(parse_expression("2*c*v - u + 3*x - 1 + c", TABLE), TABLE)
    dyn = dynamics_from_forms({"x": form}, TABLE)
    coeffs = np.hstack((dyn.a, dyn.b))[0]
    coeff_terms = {sym: np.hstack((dyn.a_terms.get(sym, np.zeros((2, 2))), dyn.b_terms.get(sym, np.zeros((2, 1)))))[0]
                   for sym in {*dyn.a_terms, *dyn.b_terms}}
    const, const_terms = dyn.c[0], {sym: t[0] for sym, t in dyn.c_terms.items()}
    assert coeffs.tolist() == [3.0, 0.0, -1.0]
    assert {sym: row.tolist() for sym, row in coeff_terms.items()} == {"c": [0.0, 2.0, 0.0]}
    assert (const, const_terms) == (-1.0, {"c": 1.0})


def test_flow_rows_write_every_row_and_reset_rows_the_changed_ones():
    dyn = AffineDynamics([[0.0, 1.0], [0.0, 0.0]], [[0.0], [2.0]], [0.0, -9.81],
                         {"c": [[0.0, 0.0], [1.0, 0.0]]}, {"c": [[1.0], [0.0]]})
    assert flow_rows(dyn, TABLE) == [("x", "v + c*u"), ("v", "c*x + 2*u - 9.81")]
    assert flow_rows(AffineDynamics.zero(2, 1), TABLE) == [("x", "0"), ("v", "0")]
    reset = ResetMap(np.eye(2), [0.0, 0.0], {}, {"c": [0.0, -1.0]})
    assert reset_rows(reset, TABLE.state_vars) == [("v", "v - c")]
    assert reset_rows(ResetMap([[1.0, 0.0], [0.0, -0.75]], [0.0, 0.0]), TABLE.state_vars) == [("v", "-0.75*v")]
    assert reset_rows(ResetMap.identity(2), TABLE.state_vars) == []


def test_condition_formatting_roundtrips_through_parser():
    cond = parse_condition("2*x - v >= 1.5 & x <= c", TABLE)
    text = format_condition(cond, TABLE.state_vars)
    again = parse_condition(text, TABLE)
    assert again == cond
