import numpy as np
import pytest

from hyra.config import emit_config, parse_config
from hyra.corpus import all_benchmarks, build
from hyra.errors import ConfigError, MissingKey, UnknownKey
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
