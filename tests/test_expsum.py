"""Closed-form exponential sums and the standard min-sum estimate."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeangle.acceptance import EXPSUM_TOL
from primeangle.alpha import AlphaSpec, build_angle_oracle, convergents, parse_alpha
from primeangle.expsum import (
    MinSumInstance,
    empirical_constant,
    linear_exp_sum,
    linear_exp_sums,
    min_sum,
    standard_estimate_bound,
)
from primeangle.reference import naive_exp_sum, naive_exp_sums

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


# ---------------------------------------------------------------------------
# the naive reference: baby-step/giant-step products, summed term by term
# ---------------------------------------------------------------------------

NAIVE_TOL = EXPSUM_TOL / 10


def mp_range_sum(a, b, x):
    """sum of e(n x) over a <= n <= b at 40 digits, x taken exactly.

    e((a + b) x/2) sin(pi c x)/sin(pi x) with c = b - a + 1; sinpi and
    expjpi reduce their exact arguments themselves.
    """
    if b < a:
        return 0j
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        if x == mpmath.floor(x):
            return complex(b - a + 1)
        return complex(mpmath.expjpi((a + b) * x) * mpmath.sinpi((b - a + 1) * x)
                       / mpmath.sinpi(x))


def _next_to(k, sign):
    return math.nextafter(float(k), sign * math.inf)


NAIVE_X = st.one_of(
    # integral x, +-2^-60, +-2^-11 (the wide-path edge of linear_exp_sums), 1/2
    st.sampled_from((0.0, -0.0, 1.0, -3.0, 2.0 ** -60, -2.0 ** -60, 2.0 ** -11, -2.0 ** -11,
                     0.5, -0.5)),
    st.builds(_next_to, st.integers(-2, 2), st.sampled_from([-1, 1])),
    st.builds(lambda k, j, sign: k + sign * 2.0 ** -j,
              st.integers(-2, 2), st.integers(1, 52), st.sampled_from([-1, 1])),
    st.floats(-2.0, 2.0),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.floats(-1e4, 1e4), st.integers(0, 2 * 10 ** 4), NAIVE_X)
@example(0.0, 1, 0.3)
@example(0.0, 16, 0.3)                     # a square count: the last giant row is full
@example(0.0, 17, 0.3)
@example(-1e4, 2 * 10 ** 4, 2.0 ** -11)
@example(1e4, 2 * 10 ** 4, 1 - 2.0 ** -53)
@example(-0.5, 2 * 10 ** 4, 1 / 141)       # B x next to 1: the 142 giant steps line up
def test_naive_exp_sum_matches_mpmath(w, count, x):
    # the count terms a <= n < a + count, against the closed form at 40
    # digits, within a tenth of criterion 4's tolerance
    a = math.floor(w) + 1
    b = a + count - 1
    assert abs(naive_exp_sum(w, b, x) - mp_range_sum(a, b, x)) <= NAIVE_TOL, (a, b, x)


@pytest.mark.parametrize("args,name", [((math.nan, 5.0, 0.1), "w"), ((0.0, math.inf, 0.1), "z"),
                                       ((-math.inf, 5.0, 0.1), "w"), ((0.0, 5.0, math.nan), "x"),
                                       ((0.0, 5.0, -math.inf), "x")])
def test_naive_exp_sum_refuses_non_finite_input(args, name):
    with pytest.raises(ValueError, match=f"finite {name}, got {name}="):
        naive_exp_sum(*args)


def test_naive_exp_sum_refuses_phases_it_cannot_reduce_exactly():
    # n * x_hi is exact for |n| < 2^27 only; ranges reaching past it raise
    top, x = 2 ** 27, 0.1234567
    for w, z in ((top - 11, top - 1), (-top, -top + 10)):
        assert abs(naive_exp_sum(w, z, x) - mp_range_sum(w + 1, z, x)) <= NAIVE_TOL
    for w, z in ((top - 11, top), (-top - 1, -top + 10)):
        with pytest.raises(ValueError, match=r"\|n\| < 2\^27"):
            naive_exp_sum(w, z, x)
    assert naive_exp_sum(3.0 * top, 3.0 * top, x) == 0j    # an empty range forms no n


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.floats(-1e4, 1e4), st.integers(0, 2 * 10 ** 4), NAIVE_X),
                min_size=1, max_size=12))
def test_naive_exp_sums_match_mpmath_as_a_batch(ranges):
    # whole batches, ranges of many shapes side by side, within the same tolerance
    ws = [w for w, _, _ in ranges]
    zs = [math.floor(w) + count for w, count, _ in ranges]
    xs = [x for _, _, x in ranges]
    sums = naive_exp_sums(ws, zs, xs)
    for (w, z, x), value in zip(zip(ws, zs, xs), sums.tolist()):
        assert abs(value - mp_range_sum(math.floor(w) + 1, z, x)) <= NAIVE_TOL, (w, z, x)


def test_naive_exp_sums_are_the_same_bit_for_bit_alone_and_in_a_batch():
    # a range's value depends on its own (w, z, x) only: the counts of an
    # empty range, one term, a full last row (16), a partial one (17), 2*10^4
    # terms in a sub-batch of their own, negative a, the 2^27 edge, and
    # 3000 ranges of 16 terms, more than one sub-batch holds
    rng = random.Random(20)
    top = 2 ** 27
    ranges = [(w, w + count, rng.uniform(-2.0, 2.0))
              for count in (0, 1, 16, 17, 2 * 10 ** 4, 2 * 10 ** 4 - 1)
              for w in (-10.5, 0.25, -3.0 * 10 ** 4, 7.0)]
    ranges += [(top - 11.0, top - 1.0, 0.1234567), (-top, -top + 10.0, -0.7654321),
               (3.0 * top, 3.0 * top, 0.3)]
    for _ in range(3000):
        w = rng.uniform(-100.0, 100.0)
        ranges.append((w, math.floor(w) + 16, rng.uniform(-2.0, 2.0)))
    rng.shuffle(ranges)
    ws, zs, xs = (np.array(v) for v in zip(*ranges))
    together = naive_exp_sums(ws, zs, xs)
    alone = np.array([naive_exp_sum(w, z, x) for w, z, x in ranges])
    assert together.view(np.uint64).tolist() == alone.view(np.uint64).tolist()
    assert together[(ws == zs)].tolist() == [0j] * 5     # the empty ranges


@pytest.mark.parametrize("column,name", [(0, "w"), (1, "z"), (2, "x")])
def test_naive_exp_sums_name_the_range_they_refuse(column, name):
    ranges = [[0.0, 5.0, 0.1] for _ in range(4)]
    ranges[2][column] = math.nan
    with pytest.raises(ValueError, match=f"finite {name}, got {name}=nan \\(range 2\\)"):
        naive_exp_sums(*zip(*ranges))
    ranges[2] = [0.0, 5.0, 0.1]
    ranges[3][:2] = [2.0 ** 27 - 11, 2.0 ** 27]
    with pytest.raises(ValueError, match=r"\|n\| < 2\^27, .* \(range 3\)"):
        naive_exp_sums(*zip(*ranges))


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
