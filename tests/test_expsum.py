"""Closed-form exponential sums and the standard min-sum estimate."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest

from primeangle.alpha import AlphaSpec, build_angle_oracle, convergents, parse_alpha
from primeangle.expsum import (
    MinSumInstance,
    empirical_constant,
    linear_exp_sum,
    linear_exp_sums,
    min_sum,
    standard_estimate_bound,
)
from primeangle.reference import naive_exp_sum

SQRT2 = AlphaSpec.sqrt(2)
GOLDEN = AlphaSpec.golden()


def dist_to_int(x):
    return abs(x - round(x))


def test_exp_sum_x_zero():
    assert linear_exp_sum(0, 10, 0.0) == 10
    assert linear_exp_sum(0, 10, 3.0) == 10  # integral x, sin(pi x) = 0 exactly


def test_exp_sum_alternating():
    assert abs(linear_exp_sum(0, 10, 0.5)) < 1e-12


def test_exp_sum_empty():
    assert linear_exp_sum(5.2, 5.9, 0.37) == 0j
    with pytest.raises(ValueError):
        linear_exp_sum(6, 5, 0.1)


def test_exp_sum_matches_naive_and_bound():
    # closed form vs term-by-term summation, plus the sharp min bound
    rng = random.Random(1729)
    for _ in range(2000):
        w = rng.uniform(-100, 100)
        z = w + rng.uniform(0, 1000)
        x = rng.uniform(-2, 2)
        closed = linear_exp_sum(w, z, x)
        naive = naive_exp_sum(w, z, x)
        assert abs(closed - naive) <= 1e-10
        count = math.floor(z) - math.floor(w)
        nx = dist_to_int(x)
        cap = count if nx == 0 else min(count, 1 / (2 * nx))
        assert abs(closed) <= cap + 1e-9


def test_min_sum_sqrt2_uncapped():
    # frozen from direct summation with 60-digit ||m sqrt2||
    oracle = build_angle_oracle(SQRT2, n_max=10)
    inst = MinSumInstance(M=10, N=100, oracle=oracle, q=29)
    res = min_sum(inst)
    assert abs(res.value - 55.25827403) < 1e-6
    assert res.switch_flags == 0


def test_min_sum_sqrt2_capped():
    # cap N=5 binds at m = 2, 5, 7, 10
    oracle = build_angle_oracle(SQRT2, n_max=10)
    res = min_sum(MinSumInstance(M=10, N=5, oracle=oracle, q=29))
    assert abs(res.value - 38.37349772) < 1e-6


def test_min_sum_single_term():
    oracle = build_angle_oracle(SQRT2, n_max=1)
    res = min_sum(MinSumInstance(M=1, N=100, oracle=oracle, q=1))
    assert abs(res.value - 1 / 0.41421356237309515) < 1e-6


def test_min_sum_monotone():
    oracle = build_angle_oracle(SQRT2, n_max=200)
    values_m = [min_sum(MinSumInstance(M=M, N=50, oracle=oracle, q=29)).value
                for M in (10, 50, 100, 200)]
    assert all(a <= b for a, b in zip(values_m, values_m[1:]))
    values_n = [min_sum(MinSumInstance(M=100, N=N, oracle=oracle, q=29)).value
                for N in (2, 5, 20, 1000)]
    assert all(a <= b for a, b in zip(values_n, values_n[1:]))


def test_standard_estimate_branches():
    branch, value = standard_estimate_bound(14, 10 ** 6, 29)
    assert branch == "small-M"
    assert abs(value - 29 * math.log(29)) < 1e-9
    branch, value = standard_estimate_bound(100, 50, 29)
    assert branch == "large-M"
    assert abs(value - (100 * 50 / 29 + 100 * math.log(29))) < 1e-9


def test_standard_estimate_q1_guard():
    branch, value = standard_estimate_bound(7, 10, 1)
    assert branch == "large-M"
    assert value == 7 * 10 + 7  # M N + M with the max(1, log q) guard


def test_empirical_constant_trivial_q1():
    oracle = build_angle_oracle(SQRT2, n_max=10)
    table = empirical_constant([MinSumInstance(M=10, N=50, oracle=oracle, q=1)])
    assert table["max_ratio"] <= 1.0


def test_empirical_constant_alpha_names_parse_back():
    specs = [SQRT2, AlphaSpec.surd(5, -2, 3, 3), AlphaSpec.golden(),
             AlphaSpec.explicit_cf([1, 2, 3], [4, 5])]
    instances = [MinSumInstance(M=10, N=50, oracle=build_angle_oracle(spec, n_max=10), q=1)
                 for spec in specs]
    rows = empirical_constant(instances)["rows"]
    assert [parse_alpha(row["alpha"]) for row in rows] == specs
    assert rows[3]["alpha"] == "cf:1;2,3;4,5"


def test_empirical_constant_grid():
    # the shipped default grid keeps the measured constant below 8
    instances = []
    for spec in (SQRT2, GOLDEN):
        qs = [c.q for c in convergents(spec, 12)]
        oracle = build_angle_oracle(spec, n_max=10 * max(qs))
        for q in qs:
            for M in (max(1, q // 4), max(1, q // 2), 2 * q, 10 * q):
                for N in (10, 10 ** 3, 10 ** 6):
                    instances.append(MinSumInstance(M=M, N=N, oracle=oracle, q=q))
    table = empirical_constant(instances)
    assert table["max_ratio"] <= 8.0
    assert all(row["switch_flags"] == 0 for row in table["rows"])


def test_two_points_per_interval():
    # proof structure of the standard estimate: within any window of length
    # q/2 the fractional parts {m alpha} put at most two points in each
    # subinterval [j/q, (j+1)/q)
    rng = random.Random(1729)
    qs = [c.q for c in convergents(SQRT2, 20) if c.q <= 10 ** 4]
    oracle = build_angle_oracle(SQRT2, n_max=10 ** 6)
    for q in qs:
        for _ in range(3):
            m0 = rng.randrange(0, 10 ** 5)
            buckets = {}
            for m in range(m0 + 1, m0 + q // 2 + 1):
                v, _ = oracle.frac(m)
                j = int(v * q)
                buckets[j] = buckets.get(j, 0) + 1
            assert all(c <= 2 for c in buckets.values()), (q, m0)


def _mp(r):
    return mpmath.mpf(r.numerator) / r.denominator


def test_reduced_phase_exact_vs_fractions():
    # Fraction(float) is exact, so this checks the residues of the array
    # closed form against textbook rational reduction for both periods:
    # a single term is e((n x) mod 1), and the sum over 0 < k <= |n| has
    # the sine remainder (|n| x) mod 2
    rng = random.Random(1729)
    ns = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(500)]
    xs = [rng.uniform(-100.0, 100.0) for _ in range(500)]
    singles = linear_exp_sums([n - 1 for n in ns], ns, xs).tolist()
    sums = linear_exp_sums([0] * len(ns), [abs(n) for n in ns], xs).tolist()
    with mpmath.workdps(50):
        for n, x, single, total in zip(ns, xs, singles, sums):
            r, c = Fraction(x), abs(n)
            # a phase error of 2e-16 turns moves e() by 2 pi 2e-16
            want = cmath.exp(2j * math.pi * float(r * n % 1))
            assert abs(single - want) <= 2e-15, (n, x, single, want)
            want = complex(mpmath.expjpi(2 * _mp((c + 1) * r / 2 % 1))
                           * mpmath.sinpi(_mp(c * r % 2)) / mpmath.sinpi(_mp(r % 2)))
            assert abs(total - want) <= 1e-14 * max(1.0, abs(want)), (n, x, total, want)


def test_reduced_phase_huge_exponent():
    # 3 * 2^60 and 0 * 0.37 are integers; x = 2^51 + 1/2 has one fractional
    # bit, so 2x is an odd integer: e(+-2x) is 1, and the sine's remainder
    # (2x) mod 2 is 1, which folds to an exact 0
    big, half_odd = 2.0 ** 60, 2.0 ** 51 + 0.5
    got = linear_exp_sums([2, 1, -3, 0, -1], [3, 2, -2, 2, 0],
                          [big, half_odd, half_odd, half_odd, 0.37]).tolist()
    assert got == [1.0, 1.0, 1.0, 0.0, 1.0]
