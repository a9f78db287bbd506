"""Continued fractions, convergents, and the certified angle oracle.

High-precision reference values were computed with mpmath at 60 digits
and frozen; structural checks run on exact integers.
"""

import random
import sys
from fractions import Fraction
from math import gcd, inf, isqrt, nextafter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primeangle.alpha as alpha_mod
from primeangle.acceptance import ALPHA_PANEL
from primeangle.alpha import (
    AlphaSpec,
    build_angle_oracle,
    cf_terms,
    classify_against_threshold,
    compare_to_rational,
    convergents,
    find_q_in_window,
    parse_alpha,
    verify_convergent_pair,
)

SQRT2 = AlphaSpec.sqrt(2)
GOLDEN = AlphaSpec.golden()


def mp_value(spec, dps=60):
    """High-precision value of a spec from its surd (a + b*sqrt(d))/c."""
    with mp.workdps(dps):
        return (spec.a + spec.b * mp.sqrt(spec.d)) / spec.c


# ---------------------------------------------------------------------------
# partial quotients
# ---------------------------------------------------------------------------

def test_cf_terms_sqrt2():
    assert cf_terms(SQRT2, 5) == [1, 2, 2, 2, 2]


def test_cf_terms_golden():
    assert cf_terms(GOLDEN, 5) == [1, 1, 1, 1, 1]


def test_cf_terms_explicit():
    spec = AlphaSpec.explicit_cf([0], [3])
    assert cf_terms(spec, 4) == [0, 3, 3, 3]


def test_cf_terms_sqrt7_period():
    # exact CF algorithm over one full period: sqrt(7) = [2; 1,1,1,4 repeating]
    assert cf_terms(AlphaSpec.sqrt(7), 9) == [2, 1, 1, 1, 4, 1, 1, 1, 4]


@pytest.mark.parametrize("d", [4, 9, 16, 144])
def test_square_d_rejected(d):
    with pytest.raises(ValueError):
        AlphaSpec.sqrt(d)


def test_cf_terms_against_mpmath():
    # floor-loop on 60-digit values, fully independent of the integer algorithm
    for spec in [SQRT2, AlphaSpec.sqrt(3), AlphaSpec.sqrt(13),
                 AlphaSpec.surd(3, 1, 2, 13), AlphaSpec.surd(5, -2, 3, 3)]:
        with mp.workdps(60):
            x = mp_value(spec)
            ref = []
            for _ in range(20):
                a = int(mp.floor(x))
                ref.append(a)
                x = 1 / (x - a)
        assert cf_terms(spec, 20) == ref


# the digit-limit spec of tests/test_cli.py: one period term of 2151 digits
# at the default limit of 4300
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)() or 4300
CF_SPECS = ["cf:0;;3", "cf:1;2,3;4,5", "cf:0;2,1000000000;1", "cf:0;2,1000000000;1,3",
            "cf:-3;7;2,2", "cf:0;;1,2,3", "cf:1;;" + "9" * (DIGIT_LIMIT // 2 + 1)]


@pytest.mark.parametrize("text", CF_SPECS, ids=lambda t: t[:24])
def test_cf_surd_reproduces_the_explicit_terms(text):
    spec = parse_alpha(text)
    surd = AlphaSpec.surd(spec.a, spec.b, spec.c, spec.d)
    assert spec.c > 0 and gcd(spec.a, spec.b, spec.c) == 1
    assert cf_terms(surd, 400) == cf_terms(spec, 400)
    assert parse_alpha(spec.canonical()) == spec


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(-50, 50), st.lists(st.integers(1, 10 ** 6), max_size=4),
       st.lists(st.sampled_from([1, 2, 3, 7, 10 ** 6, 10 ** 30]), min_size=1, max_size=5))
def test_cf_surd_property(a0, pre, period):
    spec = AlphaSpec.explicit_cf([a0] + pre, period)
    surd = AlphaSpec.surd(spec.a, spec.b, spec.c, spec.d)
    assert cf_terms(surd, 300) == cf_terms(spec, 300)


def test_negative_value_surd():
    spec = AlphaSpec.surd(-1, 1, 1, 2)  # sqrt(2) - 1... with a=-1: -1 + sqrt2 = 0.414
    assert cf_terms(spec, 4) == [0, 2, 2, 2]
    spec_neg = AlphaSpec.surd(0, -1, 1, 2)  # -sqrt(2)
    assert cf_terms(spec_neg, 5)[0] == -2  # floor(-1.414...) = -2


def test_bounded_terms_constant():
    # the max partial quotient of a surd, once the probe covers a period
    assert max(cf_terms(SQRT2, 10)) == 2
    assert max(cf_terms(GOLDEN, 10)) == 1
    assert max(cf_terms(AlphaSpec.sqrt(7), 10)) == 4


# ---------------------------------------------------------------------------
# convergents
# ---------------------------------------------------------------------------

def test_convergents_sqrt2():
    got = [(c.p, c.q) for c in convergents(SQRT2, 6)]
    assert got == [(1, 1), (3, 2), (7, 5), (17, 12), (41, 29), (99, 70)]


def test_convergents_golden_fibonacci():
    assert [c.q for c in convergents(GOLDEN, 6)] == [1, 1, 2, 3, 5, 8]


def test_convergent_cross_multiplication_sqrt2():
    # |sqrt2 - 17/12| < 1/144 by pure integer bracketing:
    # 203^2 < 2 * 144^2 < 205^2, i.e. 17*12 - 1 < sqrt2 * 144 < 17*12 + 1
    assert 203 ** 2 < 2 * 144 ** 2 < 205 ** 2
    assert compare_to_rational(SQRT2, 17 * 12 - 1, 144) == 1
    assert compare_to_rational(SQRT2, 17 * 12 + 1, 144) == -1


def test_verify_convergent_pairs():
    for spec in [SQRT2, GOLDEN, AlphaSpec.sqrt(13), AlphaSpec.surd(3, 1, 2, 13),
                 AlphaSpec.explicit_cf([0], [3]), AlphaSpec.explicit_cf([2, 1], [1, 4])]:
        convs = convergents(spec, 20)
        for cur, nxt in zip(convs, convs[1:]):
            assert verify_convergent_pair(spec, cur, nxt)


def test_denominator_growth_bound():
    # q_{n-1} < q_n <= (M+1) q_{n-1} for n >= 2
    for spec in [SQRT2, GOLDEN, AlphaSpec.sqrt(7), AlphaSpec.surd(5, -2, 3, 3)]:
        M = max(cf_terms(spec, 64))
        convs = convergents(spec, 30)
        for prev, cur in zip(convs[1:], convs[2:]):
            assert prev.q < cur.q <= (M + 1) * prev.q


def test_gcd_is_one():
    for spec in [SQRT2, GOLDEN, AlphaSpec.sqrt(61)]:
        for c in convergents(spec, 25):
            assert gcd(c.p, c.q) == 1


def recurrence_convergents(spec, count):
    """(p, q) from the partial quotients by the plain recurrence, no memo."""
    (p_prev, q_prev), (p, q) = (1, 0), (None, None)
    out = []
    for n, a in enumerate(cf_terms(spec, count)):
        if n == 0:
            p, q = a, 1
        else:
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        out.append((n, p, q))
    return out


def test_convergent_memo_matches_the_recurrence(monkeypatch):
    monkeypatch.setattr(alpha_mod, "_CONVERGENT_MEMO", {})
    count = alpha_mod.MEMO_DEPTH + 20  # past the memo, into a fresh walk
    for spec in ALPHA_PANEL + (parse_alpha("cf:0;2,1000000000;1,3"),):
        want = recurrence_convergents(spec, count)
        for _ in range(2):  # the walk, then the memo
            assert [(c.n, c.p, c.q) for c in convergents(spec, count)] == want


def test_convergent_memo_interleaved_streams_and_one_walk(monkeypatch):
    monkeypatch.setattr(alpha_mod, "_CONVERGENT_MEMO", {})
    walks = []
    walk = alpha_mod._convergent_walk
    monkeypatch.setattr(alpha_mod, "_convergent_walk",
                        lambda spec: walks.append(spec) or walk(spec))
    first, second = alpha_mod.convergent_stream(SQRT2), alpha_mod.convergent_stream(SQRT2)
    got = [next(first).q, next(first).q, next(second).q, next(first).q,
           next(second).q, next(second).q, next(second).q]
    assert got == [1, 2, 1, 5, 2, 5, 12]
    find_q_in_window(SQRT2, 293, 336)
    build_angle_oracle(SQRT2, n_max=10 ** 6)
    assert walks == [SQRT2]


def test_convergent_memo_is_bounded_and_not_shared_with_callers(monkeypatch):
    monkeypatch.setattr(alpha_mod, "_CONVERGENT_MEMO", {})
    depth = alpha_mod.MEMO_DEPTH
    got = convergents(GOLDEN, depth + 50)
    assert len(alpha_mod._CONVERGENT_MEMO[GOLDEN][0]) == depth
    got[3] = None
    del got[10:]
    again = convergents(GOLDEN, depth + 50)
    assert len(again) == depth + 50 and again[3].q == 3
    for d in range(2, 2 + 2 * alpha_mod.MEMO_ALPHAS):
        if isqrt(d) ** 2 != d:
            convergents(AlphaSpec.sqrt(d), 2)
    assert len(alpha_mod._CONVERGENT_MEMO) == alpha_mod.MEMO_ALPHAS


# ---------------------------------------------------------------------------
# denominator windows
# ---------------------------------------------------------------------------

def test_window_hit_sqrt2():
    res = find_q_in_window(SQRT2, 10, 40)
    assert res.ok and res.found.q == 12


def test_window_miss_sqrt2():
    res = find_q_in_window(SQRT2, 293, 336)
    assert not res.ok
    assert res.below.q == 169
    assert res.above.q == 408


def test_window_hit_golden():
    res = find_q_in_window(GOLDEN, 4, 6)
    assert res.ok and res.found.q == 5


def test_window_completeness():
    # hi/lo >= M+1 guarantees a hit (consequence of the growth bound)
    rng = random.Random(1729)
    for spec in [SQRT2, GOLDEN, AlphaSpec.sqrt(7), AlphaSpec.sqrt(13)]:
        M = max(cf_terms(spec, 64))
        for _ in range(50):
            lo = rng.uniform(1, 1e9)
            assert find_q_in_window(spec, lo, lo * (M + 1)).ok


def test_window_bad_args():
    with pytest.raises(ValueError):
        find_q_in_window(SQRT2, 40, 10)
    with pytest.raises(ValueError):
        find_q_in_window(SQRT2, 0.5, 10)


# ---------------------------------------------------------------------------
# angle oracle
# ---------------------------------------------------------------------------

def test_oracle_anchor_floor():
    oracle = build_angle_oracle(SQRT2, n_max=10 ** 6, err_target=2.0 ** -40)
    assert oracle.anchor.q ** 2 >= 10 ** 6 / 2.0 ** -40
    assert oracle.ebound <= 2.0 ** -40


@pytest.mark.parametrize("err_target", [2.0 ** -40, 2.0 ** -80])
def test_power_of_two_targets_pick_the_float_threshold_anchors(err_target):
    # n_max / err_target is exact in floats for these targets, so the
    # integer test Q^2 num >= n_max den picks the anchor the float quotient did
    for spec in ALPHA_PANEL:
        for n_max in (1, 100, 10 ** 6, 2 * 10 ** 9 + 7):
            stream = alpha_mod.convergent_stream(spec)
            conv = next(stream)
            while conv.q * conv.q < n_max / err_target:
                conv = next(stream)
            assert build_angle_oracle(spec, n_max, err_target).anchor == next(stream)


@pytest.mark.parametrize("err_target", [2.0 ** -40, 2.0 ** -80, 2.0 ** -1074])
def test_ebound_is_n_max_over_q_squared_rounded_up(err_target):
    # the least float at or above n_max/Q^2: never below the exact bound,
    # and the float one step down is below it (5e-324 where it underflows)
    for spec in ALPHA_PANEL:
        for n_max in (1, 3, 100, 10 ** 6 + 3, 2 * 10 ** 9 + 7):
            oracle = build_angle_oracle(spec, n_max, err_target)
            exact = Fraction(n_max, oracle.anchor.q ** 2)
            assert Fraction(oracle.ebound) >= exact
            assert Fraction(nextafter(oracle.ebound, -inf)) < exact
            assert oracle.ebound <= err_target


# frozen via mpmath at 60 digits: || n*sqrt(2) ||
SQRT2_ANGLES = {
    2: 0.1715728752538099,   # 3 - 2 sqrt2
    5: 0.0710678118654752,   # 5 sqrt2 = 7.07106781...
    12: 0.0294372515228594,  # 12 sqrt2 = 16.97056274...
}


def test_oracle_known_angles():
    oracle = build_angle_oracle(SQRT2, n_max=100)
    for n, expected in SQRT2_ANGLES.items():
        value, err = oracle.dist(n)
        assert err <= 2.0 ** -40
        assert abs(value - expected) <= err + 1e-15


def test_oracle_consistency_against_deeper_anchor():
    # 10^3 random n: agree with a much deeper anchor to within ebound
    rng = random.Random(1729)
    for spec in [SQRT2, GOLDEN]:
        oracle = build_angle_oracle(spec, n_max=10 ** 6, err_target=2.0 ** -40)
        deep = build_angle_oracle(spec, n_max=10 ** 6, err_target=2.0 ** -54)
        assert deep.anchor.q > 10 * oracle.anchor.q
        for _ in range(1000):
            n = rng.randrange(1, 10 ** 6 + 1)
            v, err = oracle.dist(n)
            w, deep_err = deep.dist(n)
            assert abs(v - w) <= err + deep_err


def test_oracle_range_guard():
    oracle = build_angle_oracle(SQRT2, n_max=100)
    with pytest.raises(ValueError):
        oracle.dist(101)


@pytest.mark.parametrize("n", [2.5, 2.0, True, np.bool_(False), np.float64(3.0), "3", None])
def test_oracle_scalar_rejects_non_integers(n):
    oracle = build_angle_oracle(SQRT2, n_max=100)
    for method in (oracle.dist, oracle.frac):
        with pytest.raises(TypeError):
            method(n)


def test_oracle_scalar_takes_numpy_integers():
    oracle = build_angle_oracle(SQRT2, n_max=100)
    for n in (np.int64(5), np.uint8(5), np.int32(-5)):
        assert oracle.dist(n) == oracle.dist(int(n))
        assert oracle.frac(n) == oracle.frac(int(n))


def test_oracle_frac_negative_n():
    oracle = build_angle_oracle(SQRT2, n_max=1000)
    v_pos, _ = oracle.frac(7)
    v_neg, _ = oracle.frac(-7)
    assert abs((v_pos + v_neg) - 1.0) < 1e-12
    d_pos, _ = oracle.dist(7)
    d_neg, _ = oracle.dist(-7)
    assert d_pos == d_neg


def test_classify_against_threshold():
    assert classify_against_threshold(0.10, 1e-12, 0.2) == "below"
    assert classify_against_threshold(0.30, 1e-12, 0.2) == "above"
    assert classify_against_threshold(0.2, 1e-3, 0.2) == "boundary"


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_grammar_roundtrip():
    assert parse_alpha("sqrt:2") == SQRT2
    assert parse_alpha("surd:1,1,2,5") == GOLDEN
    spec = parse_alpha("cf:0;;3")
    assert spec.preperiod == (0,) and spec.period == (3,)
    spec2 = parse_alpha("cf:1;2,3;4,5")
    assert spec2.preperiod == (1, 2, 3) and spec2.period == (4, 5)
    assert parse_alpha(spec2.canonical()) == spec2


def test_parse_rejects_garbage():
    for bad in ["sqrt:nine", "surd:1,2,3", "cf:1;2", "pi", "cf:1;;"]:
        with pytest.raises(ValueError):
            parse_alpha(bad)


def test_oracle_against_mpmath_sweep():
    # independent 60-digit reference for ||n*alpha|| at 200 seeded points
    rng = random.Random(1729)
    for spec in [SQRT2, AlphaSpec.surd(3, 1, 2, 13)]:
        oracle = build_angle_oracle(spec, n_max=10 ** 6, err_target=2.0 ** -40)
        with mp.workdps(60):
            value = mp_value(spec)
            for _ in range(200):
                n = rng.randrange(1, 10 ** 6 + 1)
                got, err = oracle.dist(n)
                x = n * value
                want = float(abs(x - mp.nint(x)))
                assert abs(got - want) <= err + 1e-15, (spec.canonical(), n)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(ALPHA_PANEL + (parse_alpha("cf:1;2,3;4,5"),
                                      parse_alpha("cf:0;2,1000000000;1,3"))),
       st.integers(1, 2 ** 48), st.sampled_from([2.0 ** -12, 2.0 ** -40, 2.0 ** -80]), st.data())
def test_dist_within_ebound_of_mpmath(spec, n_max, err_target, data):
    # ||n*alpha|| at 100 digits, the cf: alphas read from their surd; dist
    # is the correctly rounded m/Q, within ebound of it
    n = data.draw(st.integers(-n_max, n_max))
    oracle = build_angle_oracle(spec, n_max=n_max, err_target=err_target)
    got, err = oracle.dist(n)
    with mp.workdps(100):
        x = n * mp_value(spec, 100)
        assert abs(got - abs(x - mp.nint(x))) <= err + 2.0 ** -53 * got, (spec.canonical(), n)
