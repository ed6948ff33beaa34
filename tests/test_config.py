import numpy as np
import pytest

from hyra.config import emit_config, parse_config
from hyra.corpus import all_benchmarks, build
from hyra.errors import ConfigError, ExpressionSyntaxError, MissingKey, NonlinearUnsupported, UnknownIdentifier, UnknownKey
from hyra.expressions import parse_condition
from hyra.ir import VariableTable

TABLE = VariableTable(("x", "v"))


def test_horizon_and_step():
    parsed = parse_config("time-horizon = 5\nsampling-time = 0.1", TABLE)
    assert parsed.settings.horizon == 5.0
    assert parsed.settings.step == 0.1


def test_missing_sampling_time_defaults_to_thousandth():
    parsed = parse_config("time-horizon = 5", TABLE)
    assert parsed.settings.step == 5.0 / 1000.0


def test_forbidden_parses_to_condition():
    parsed = parse_config("time-horizon = 40\nforbidden = v >= 10.7", TABLE)
    (con,) = parsed.settings.forbidden.constraints
    assert con.relation == ">=" and con.bound == 10.7
    assert np.array_equal(con.coeffs, [0.0, 1.0])


def test_missing_horizon_is_an_error():
    with pytest.raises(MissingKey):
        parse_config("sampling-time = 0.1", TABLE)


@pytest.mark.parametrize("text", ["time-horizon = inf", "time-horizon = inf\nsampling-time = 0.1"])
def test_infinite_horizon_is_an_error(text):
    with pytest.raises(ConfigError, match="horizon must be finite"):
        parse_config(text, TABLE)


def test_unknown_key_rejected():
    with pytest.raises(UnknownKey):
        parse_config("time-horizon = 1\nwibble = 3", TABLE)


def test_initially_builds_box_and_location():
    text = "time-horizon = 1\ninitially = loc() == always & x >= 10 & x <= 10.2 & v == 0"
    parsed = parse_config(text, TABLE)
    assert parsed.initial.location == "always"
    assert np.array_equal(parsed.initial.box.lo, [10.0, 0.0])
    assert np.array_equal(parsed.initial.box.hi, [10.2, 0.0])


def test_initially_requires_full_box():
    with pytest.raises(ConfigError):
        parse_config("time-horizon = 1\ninitially = loc() == a & x >= 0 & x <= 1", TABLE)


def test_initially_rejects_non_interval_terms():
    with pytest.raises(ConfigError):
        parse_config(
            "time-horizon = 1\ninitially = loc() == a & x + v <= 1 & x >= 0 & x <= 1", TABLE
        )


def _halfspace_box(terms, table):
    """The initial box of interval terms by the halfspace-row formula: a row c x <= d sets hi = d / c if c > 0, else lo."""
    lo, hi = np.full(table.n, -np.inf), np.full(table.n, np.inf)
    for term in terms:
        cond = parse_condition(term, table)
        i = int(np.flatnonzero(cond.constraints[0].coeffs)[0])
        rows = cond.halfspaces()
        for c, d in zip(rows.coeffs[:, i], rows.bounds):
            if c > 0:
                hi[i] = min(hi[i], d / c)
            else:
                lo[i] = max(lo[i], d / c)
    return lo, hi


@pytest.mark.parametrize("terms", [
    ["x < 1", "x > -1"], ["x <= 1", "x >= -1"], ["x == 0.3"], ["0.9 <= x", "1.1 >= x"], ["0.3 == x"],
    ["-x <= 1", "-x >= -0.7"], ["2*x >= 1", "3*x <= 1.9"], ["-3*x < 0.7", "-0.1*x > -0.3"], ["x/3 <= 0.1", "x/7 >= -0.1"],
    ["7*x == -0.1"], ["-x == 1e-320"], ["x <= -0.0", "-x <= 0.0"], ["x >= 0", "x >= 0.5", "x >= 0.25", "x <= 9"],
    ["x <= 1", "x <= 0.5", "x < 0.75", "x >= -9"], ["x >= 0.1", "x == 0.2", "x <= 0.3"], ["1e308*x <= 1e308", "-x <= 5e-324"],
], ids=lambda terms: " & ".join(terms))
def test_initially_bounds_are_those_of_the_halfspace_rows(terms):
    text = f"time-horizon = 1\ninitially = loc() == a & {' & '.join(terms)} & v >= -2.5 & 4*v <= 3"
    box = parse_config(text, TABLE).initial.box
    lo, hi = _halfspace_box(terms + ["v >= -2.5", "4*v <= 3"], TABLE)
    assert box.lo.tobytes() == lo.tobytes() and box.hi.tobytes() == hi.tobytes()


@pytest.mark.parametrize("initially, message", [
    ("loc() == a & x + v <= 1 & v == 0", "initially term 'x + v <= 1' is not an interval bound on one variable"),
    ("loc() == a & 0*x <= 1 & v == 0", "initially term '0*x <= 1' is not an interval bound on one variable"),
    ("loc() == a & x <= k & v == 0", "initially term 'x <= k' is not an interval bound on one variable"),
    ("loc() == a & (x <= 1 & x >= 0) & v == 0", "initially term '(x <= 1 & x >= 0)' must be a single constraint"),
    ("loc() = a & x == 0 & v == 0", "malformed location term 'loc() = a'"),
    ("x == 0 & v == 0", "initially must name a location via loc() == <name>"),
    ("loc() == a & x <= 1 & v == 0", "initially leaves variables unbounded: x"),
    ("loc() == a & x >= 1 & x <= 0.5 & v == 0", "initially intervals are empty (lo > hi)"),
])
def test_initially_errors_keep_their_messages(initially, message):
    table = VariableTable(("x", "v"), (), {"k": 1.0})
    with pytest.raises(ConfigError) as error:
        parse_config(f"time-horizon = 1\ninitially = {initially}", table)
    assert str(error.value) == message


def test_comments_blank_lines_and_quotes():
    text = '# settings\n\ntime-horizon = "2"\nfixpoint = false\nmax-jumps = 3\n'
    parsed = parse_config(text, TABLE)
    assert parsed.settings.horizon == 2.0
    assert parsed.settings.fixpoint_check is False
    assert parsed.settings.max_jumps == 3


def test_output_variables_validated():
    with pytest.raises(ConfigError):
        parse_config("time-horizon = 1\noutput-variables = x, nope", TABLE)


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.value)
def test_emit_parse_roundtrip(bench):
    bundle = build(bench)
    text = emit_config(bundle.settings, bundle.initial, bundle.automaton.vars, bundle.automaton.name)
    parsed = parse_config(text, bundle.automaton.vars)
    assert parsed.settings == bundle.settings
    assert parsed.initial == bundle.initial
    assert parsed.system == bundle.automaton.name


INITIALLY_TABLE = VariableTable(("x", "v"), ("u",), {"c": 2.0})
# Each initially text and what parsing it gives: the box, or the error of the
# first bad term in text order, worded and positioned for that term alone.
INITIALLY_CASES = [
    ("loc() == a & x >= 1 & x <= 2 & v == 0", ([1.0, 0.0], [2.0, 0.0])),
    ("x <= 2 & loc() == a & 2*x >= 1 & -v <= 0.5 & v/2 <= 1 & x >= -1e308", ([0.5, -0.5], [2.0, 2.0])),
    ("loc() == a & x >= 1 && x <= 2 & v == 0 & (v >= 0)", ([1.0, 0.0], [2.0, 0.0])),
    ("loc() == a & (x >= 1 & x <= 2) & v == 0",
     (ConfigError, "initially term '(x >= 1 & x <= 2)' must be a single constraint")),
    ("loc() == a & x + v >= 1 & zz <= 2",
     (ConfigError, "initially term 'x + v >= 1' is not an interval bound on one variable")),
    ("loc(a & x >= 1 & x*v <= 1", (ConfigError, "malformed location term 'loc(a & x >= 1 & x*v <= 1'")),
    ("x >= 1 & loc() = a & x*v <= 1", (ConfigError, "malformed location term 'loc() = a'")),
    ("loc() == a & x >= 1 & x <= c", (ConfigError, "initially term 'x <= c' is not an interval bound on one variable")),
    ("loc() == a & x >= 1 & x <= 2 & v >= 0 & v <= (1", (ExpressionSyntaxError, "expected ')' (at position 7)")),
    ("loc() == a & x >= 1 & x <= 2 & v >= 0 & v <= 1 + ",
     (ExpressionSyntaxError, "unexpected end of input (at position 8)")),
    ("loc() == a & x >= 1 & x <= 2 & v == 0 & x <= 1 <= 2", (ExpressionSyntaxError, "trailing input '<=' (at position 7)")),
    ("loc() == a & x >= 1 & x/0 <= 1 & v == 0", (NonlinearUnsupported, "division by zero")),
    ("loc() == a & x >= 1 & u <= 1 & v == 0", (NonlinearUnsupported, "input 'u' cannot appear in a constraint")),
    ("loc() == a & x >= 1 & x <= 2 & v == 0 & x",
     (NonlinearUnsupported, "expected a comparison, found a bare arithmetic expression")),
    ("loc() == a & x >= 1 & x <= 2 & v == 0 & x' <= 2", (UnknownIdentifier, "unknown identifier \"x'\"")),
    ("loc() == a & x >= 1 & x <= 2 & v >= 0 & v <= 1 & x <= 0", (ConfigError, "initially intervals are empty (lo > hi)")),
    ("loc() == a & x >= 1 & x <= 2", (ConfigError, "initially leaves variables unbounded: v")),
    ("x >= 1 & x <= 2 & v == 0", (ConfigError, "initially must name a location via loc() == <name>")),
]


@pytest.mark.parametrize("text, want", INITIALLY_CASES, ids=[text for text, _ in INITIALLY_CASES])
def test_initially_terms_parse_in_one_pass_with_each_terms_own_error(text, want):
    config = f"time-horizon = 1\ninitially = {text}"
    if isinstance(want[0], type):
        error, message = want
        with pytest.raises(error) as raised:
            parse_config(config, INITIALLY_TABLE)
        assert type(raised.value) is error and str(raised.value) == message
    else:
        initial = parse_config(config, INITIALLY_TABLE).initial
        assert initial.location == "a"
        assert (initial.box.lo.tolist(), initial.box.hi.tolist()) == want
