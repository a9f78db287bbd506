"""Admissibility checks, q selection, config parsing."""

import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeangle.alpha import AlphaSpec
from primeangle.config import (
    FORMATS,
    Q_POLICY_ALIASES,
    READERS,
    ExperimentConfig,
    InadmissibleConfig,
    QWindowMiss,
    check_admissible,
    config_from_dict,
    parse_precision,
    require_admissible,
    select_q,
)

SQRT2 = AlphaSpec.sqrt(2)
GOLDEN = AlphaSpec.golden()


def base_config(**kw):
    defaults = dict(X=10 ** 6, Y=10 ** 5, delta=0.45, eps=0.01, alpha=SQRT2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_admissible_reference_point():
    # Y-floor ~ 39811, delta-floor ~ 0.3981: both pass at this point
    report = check_admissible(base_config())
    assert report.ok
    rows = {name: (ok, lhs, rhs) for name, ok, lhs, rhs in report.checks}
    _, _, y_floor = rows["Y >= X^(2/3+10eps)"]
    assert math.isclose(y_floor, (10 ** 6) ** (2 / 3 + 0.1), rel_tol=1e-12)
    assert 39000 < y_floor < 40000
    _, _, d_floor = rows["delta >= X^(10eps)*max(X^(1/4)Y^(-1/2), X^(2/3)/Y)"]
    assert math.isclose(d_floor, (10 ** 6) ** 0.1 * 0.1, rel_tol=1e-12)


def test_q_window_values():
    lo, hi = base_config().q_window()
    assert math.isclose(lo, 292.9459419014239, rel_tol=1e-12)
    assert math.isclose(hi, 336.3469440969353, rel_tol=1e-12)


def test_inadmissible_named_violation():
    report = check_admissible(base_config(Y=10 ** 6 // 2 + 1))
    assert not report.ok
    assert "Y <= X/2" in report.violations()


def test_gate_raises_unless_forced():
    config = base_config(Y=10 ** 6 // 2 + 1)
    with pytest.raises(InadmissibleConfig, match="Y <= X/2"):
        require_admissible(config)
    assert not require_admissible(config, force=True).ok
    assert require_admissible(base_config()).ok


def test_select_q_nearest_above():
    # sqrt2 straddle (169, 408); 408 is closer to the log midpoint
    conv, in_window = select_q(base_config())
    assert conv.q == 408 and in_window is False


def test_select_q_nearest_golden():
    conv, in_window = select_q(base_config(alpha=GOLDEN))
    assert conv.q == 377 and in_window is False


def test_select_q_strict_miss():
    with pytest.raises(QWindowMiss):
        select_q(base_config(q_policy="strict-window"))


def test_select_q_hit():
    # widen the window by raising eps: [Y/(d X^{.5-2e}), Y/(d X^{.5-3e})]
    config = base_config(eps=0.05)
    lo, hi = config.q_window()
    conv, in_window = select_q(config)
    assert in_window is True
    assert lo <= conv.q <= hi


def test_parse_precision():
    assert parse_precision("2^-40") == 2.0 ** -40
    assert parse_precision("0.001") == 0.001
    assert parse_precision(2.0 ** -20) == 2.0 ** -20


@pytest.mark.parametrize("text", ["2^x", "2^", "2^-4.5", "2^2000"])
def test_parse_precision_names_a_bad_power(text):
    with pytest.raises(ValueError, match=f"^precision '{re.escape(text)}' is not"):
        parse_precision(text)


def test_config_from_json_roundtrip():
    config = base_config()
    echoed = json.dumps(config.as_dict())
    again = config_from_dict(json.loads(echoed))
    assert again == config


def test_the_reader_table_lists_every_config_field_in_order():
    assert list(READERS) == [field.name for field in dataclasses.fields(ExperimentConfig)]


NONSQUARE = st.integers(2, 10 ** 6).filter(lambda d: math.isqrt(d) ** 2 != d)
TERMS = st.lists(st.integers(1, 100), max_size=3).map(lambda terms: ",".join(map(str, terms)))
ALPHAS = st.one_of(
    NONSQUARE.map(lambda d: f"sqrt:{d}"),
    st.builds(lambda a, b, c, d: f"surd:{a},{b},{c},{d}", st.integers(-50, 50),
              st.integers(-20, 20).filter(bool), st.integers(1, 50), NONSQUARE),
    st.builds(lambda a0, pre, period: f"cf:{a0};{pre};{period}", st.integers(-50, 50), TERMS,
              TERMS.filter(bool)),
)


def _integral(value):
    """value as an int or as the float equal to it."""
    return st.sampled_from([value, float(value)])


@st.composite
def config_dicts(draw):
    X = draw(st.integers(1, 10 ** 12))
    Y = draw(st.integers(0, X))
    data = {"X": draw(_integral(X)), "Y": draw(_integral(Y)),
            "delta": draw(st.floats(1e-3, 0.5)), "eps": draw(st.floats(1e-3, 1.0)),
            "alpha": draw(ALPHAS)}
    optional = {
        "err_target": st.one_of(st.integers(3, 1074).map(lambda k: f"2^-{k}"),
                                st.floats(0.0, 0.25, exclude_min=True, exclude_max=True)),
        "q_policy": st.sampled_from(sorted(Q_POLICY_ALIASES)),
        "budget": st.floats(allow_nan=False, allow_infinity=False),
        "seed": st.integers(-2 ** 53, 2 ** 53).flatmap(_integral),
        "format": st.sampled_from(FORMATS),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            data[key] = draw(values)
    return data


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(config_dicts())
def test_the_config_echo_round_trips(data):
    config = config_from_dict(data)
    echo = json.loads(json.dumps(config.as_dict()))
    assert config_from_dict(echo) == config
    assert config_from_dict(echo).as_dict() == echo


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        config_from_dict({"X": 100, "Y": 10, "delta": 0.3, "eps": 0.05,
                          "alpha": "sqrt:2", "bogus": 1})


def test_config_rejects_missing_keys():
    with pytest.raises(ValueError, match="missing config keys"):
        config_from_dict({"X": 100})


def test_config_rejects_mismatched_derived():
    data = base_config().as_dict()
    data["L"] = 99
    with pytest.raises(ValueError, match="derived key"):
        config_from_dict(data)


def test_config_accepts_precision_string():
    config = config_from_dict({"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05,
                               "alpha": "sqrt:2", "err_target": "2^-30"})
    assert config.err_target == 2.0 ** -30


@pytest.mark.parametrize("alias, policy", [("strict", "strict-window"),
                                           ("nearest", "nearest-convergent"),
                                           ("strict-window", "strict-window")])
def test_config_accepts_q_policy_aliases(alias, policy):
    config = config_from_dict({"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05,
                               "alpha": "sqrt:2", "q_policy": alias})
    assert config.q_policy == policy
    assert config.as_dict()["q_policy"] == policy


def test_derived_fields():
    config = base_config()
    assert math.isclose(config.U, 100.0, rel_tol=1e-12)
    assert config.L == math.ceil((10 ** 6) ** 0.01 / 0.45)


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(delta=0.7)
    with pytest.raises(ValueError):
        base_config(q_policy="freeform")
    with pytest.raises(ValueError):
        base_config(eps=0.0)
    with pytest.raises(ValueError, match=r"^need Y <= X, got X=1000000 and Y=1000001$"):
        base_config(Y=10 ** 6 + 1)
    assert base_config(Y=10 ** 6).Y == 10 ** 6    # the whole of (0, X] is a window


@pytest.mark.parametrize("key,value", [
    ("X", 1000.7), ("X", True), ("X", "1000"), ("X", math.inf), ("X", math.nan),
    ("Y", True), ("Y", 300.5), ("Y", None),
    ("seed", False), ("seed", 1.5), ("seed", "7"),
])
def test_config_rejects_non_integral_fields(key, value):
    data = {"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05, "alpha": "sqrt:2", key: value}
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        config_from_dict(data)


def test_config_accepts_integral_floats():
    config = config_from_dict({"X": 1000.0, "Y": 3e2, "delta": 0.3, "eps": 0.05,
                               "alpha": "sqrt:2", "seed": 7.0})
    assert (config.X, config.Y, config.seed) == (1000, 300, 7)
    assert all(type(v) is int for v in (config.X, config.Y, config.seed))


@pytest.mark.parametrize("key,value", [
    ("delta", True), ("delta", "0.3"), ("delta", None),
    ("eps", True), ("eps", "0.05"), ("eps", [0.05]),
    ("budget", True), ("budget", False), ("budget", "1e9"), ("budget", None),
    ("err_target", True), ("err_target", None), ("err_target", [2.0 ** -40]),
])
def test_config_rejects_non_numeric_reals(key, value):
    data = {"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05, "alpha": "sqrt:2", key: value}
    with pytest.raises(ValueError, match=f"{key} must be a number"):
        config_from_dict(data)


def test_config_accepts_integer_reals():
    # no integer lies in err_target's range (0, 1/4), so it is not among them
    config = config_from_dict({"X": 1000, "Y": 300, "delta": 0.3, "eps": 1,
                               "alpha": "sqrt:2", "budget": 10 ** 6})
    assert (config.eps, config.budget) == (1.0, 1e6)
    assert all(type(v) is float for v in (config.eps, config.budget))


@pytest.mark.parametrize("value", [1, 5.0, 0.25, 0.9, 0.0, -2.0 ** -40, math.nan, math.inf,
                                   "2^-2", "2^-1100", "0.3"])
def test_config_rejects_err_target_outside_a_quarter(value):
    data = {"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05, "alpha": "sqrt:2", "err_target": value}
    with pytest.raises(ValueError, match=r"^err_target must lie in \(0, 1/4\), got "):
        config_from_dict(data)
    data["err_target"] = 0.2499
    assert config_from_dict(data).err_target < 0.25


@pytest.mark.parametrize("key,value", [
    ("eps", math.nan), ("eps", math.inf), ("eps", -math.inf),
    ("budget", math.nan), ("budget", math.inf), ("budget", -math.inf),
])
def test_config_rejects_non_finite_eps_and_budget(key, value):
    data = {"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05, "alpha": "sqrt:2", key: value}
    with pytest.raises(ValueError, match=f"^{key} must be"):
        config_from_dict(data)


@pytest.mark.parametrize("delta,eps", [
    (0.1, 6.0),         # X^(2/3+10eps) overflows
    (0.1, 60.0),        # so does X^eps in L
    (1e-300, 5.0),      # X^eps/delta overflows in L
    (5e-324, 0.05),
    (1e-250, 5.0),      # L is finite, the q window is not
])
def test_config_rejects_non_finite_derived_floats(delta, eps):
    with pytest.raises(ValueError, match="^" + re.escape(
            f"X=1000000, Y=100000, eps={eps!r} and delta={delta!r} give a non-finite ")):
        base_config(delta=delta, eps=eps)


@pytest.mark.parametrize("value", [5, None, 2.5, True, ["sqrt:2"], {"sqrt": 2}])
def test_config_rejects_alpha_that_is_not_a_spec(value):
    data = {"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05, "alpha": value}
    with pytest.raises(ValueError, match="^alpha must be"):
        config_from_dict(data)
    data["alpha"] = SQRT2
    assert config_from_dict(data).alpha == SQRT2
