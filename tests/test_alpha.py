"""Continued fractions, convergents, and the certified angle oracle.

High-precision reference values were computed with mpmath at 60 digits
and frozen; structural checks run on exact integers.
"""

import random
from math import gcd

import mpmath as mp
import pytest

from primeangle.alpha import (
    AlphaSpec,
    bounded_terms_constant,
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
    """Independent high-precision value of a quadratic surd."""
    assert spec.kind == "quadratic-surd"
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


def test_negative_value_surd():
    spec = AlphaSpec.surd(-1, 1, 1, 2)  # sqrt(2) - 1... with a=-1: -1 + sqrt2 = 0.414
    assert cf_terms(spec, 4) == [0, 2, 2, 2]
    spec_neg = AlphaSpec.surd(0, -1, 1, 2)  # -sqrt(2)
    assert cf_terms(spec_neg, 5)[0] == -2  # floor(-1.414...) = -2


def test_bounded_terms_constant():
    assert bounded_terms_constant(SQRT2, 10) == 2
    assert bounded_terms_constant(GOLDEN, 10) == 1
    assert bounded_terms_constant(AlphaSpec.sqrt(7), 10) == 4


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
        M = bounded_terms_constant(spec, 64)
        convs = convergents(spec, 30)
        for prev, cur in zip(convs[1:], convs[2:]):
            assert prev.q < cur.q <= (M + 1) * prev.q


def test_gcd_is_one():
    for spec in [SQRT2, GOLDEN, AlphaSpec.sqrt(61)]:
        for c in convergents(spec, 25):
            assert gcd(c.p, c.q) == 1


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
        M = bounded_terms_constant(spec, 64)
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
                assert abs(got - want) <= err + 1e-15, (spec.describe(), n)
