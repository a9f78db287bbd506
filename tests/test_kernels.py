"""Property tests of the array kernels against independent oracles.

Every kernel of the bound suite has an oracle of its own: the array closed
form against mpmath at 50 digits, the type I suffix maxima against
reference.naive_type_i_block, the label-batched quadruple counts against
reference.brute_force_quadruples, and the banded T4/T5 split against a
plain (n1, n2) enumeration and the direct T3 route.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeangle import alpha as alpha_module
from primeangle import vaughan
from primeangle.acceptance import SPLIT_RESIDUAL_TOL
from primeangle.alpha import AlphaSpec, build_angle_oracle
from primeangle.expsum import MinSumInstance, linear_exp_sum, linear_exp_sums, min_sum
from primeangle.reference import brute_force_quadruples, naive_type_i_block
from primeangle.sieve import iroot, small_tables
from primeangle.smoothing import kernel_for_experiment
from primeangle.vaughan import (
    BudgetExceeded,
    SumContext,
    dyadic_h_blocks,
    dyadic_m_blocks,
    gamma_counts,
    t2_sum,
    t3_t4_t5_split,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
ALPHAS = (AlphaSpec.sqrt(2), AlphaSpec.golden(), AlphaSpec.sqrt(7), AlphaSpec.sqrt(13))


def make_ctx(X, Y, alpha=ALPHAS[0], budget=1e9, delta=0.3, eps=0.05):
    kernel = kernel_for_experiment(X, eps, delta)
    oracle = build_angle_oracle(alpha, n_max=2 * X * kernel.L + X, err_target=2.0 ** -80)
    tables = small_tables(max(2 * iroot(X * X, 3) + 1, 16))
    return SumContext(X=X, Y=Y, delta=delta, eps=eps, oracle=oracle,
                      kernel=kernel, tables=tables, budget=budget)


def with_chunk(size, fn, *args):
    """fn(*args) with kernel passes of at most size cells; small sizes cut rows into tiles."""
    old, vaughan.CHUNK = vaughan.CHUNK, size
    try:
        return fn(*args)
    finally:
        vaughan.CHUNK = old


# ---------------------------------------------------------------------------
# the array closed form
# ---------------------------------------------------------------------------

def _near(k, j, sign):
    return k + sign * 2.0 ** -j


def mp_exp_sum(lo, hi, x):
    """sum of e(n x) over lo < n <= hi by mpmath at 50 digits, x taken exactly.

    A float is a dyadic rational, so mpf(x) and the integer multiples of it
    below are exact, and sinpi and expjpi reduce their exact arguments
    themselves.
    """
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        if x == mpmath.floor(x):
            return complex(hi - lo)
        ratio = mpmath.sinpi((hi - lo) * x) / mpmath.sinpi(x)
        return complex(mpmath.expjpi((lo + 1 + hi) * x) * ratio)


def assert_matches_mpmath(lo, hi, xs):
    got = linear_exp_sums(np.array(lo), np.array(hi), np.array(xs))
    for g, a, b, x in zip(got.tolist(), lo, hi, xs):
        want = mp_exp_sum(a, b, x)
        assert abs(g - want) <= 1e-13 * max(1.0, abs(want)), (a, b, x, g, want)


NAMED_X = (0.0, -0.0, 2.0 ** -60, -2.0 ** -60, 1 - 2.0 ** -53, -(1 - 2.0 ** -53),
           2 - 2.0 ** -52, -(2 - 2.0 ** -52), 1.0, -1.0, 2.0, -2.0, 0.5,
           2.0 ** -10, 2.0 ** -11, 2.0 ** -12, -1.5 * 2.0 ** -12, 5e-324,
           2.0 ** 60, 2.0 ** 51 + 0.5, -(2.0 ** 51 + 0.5), 99.99, -0.37)
ADVERSARIAL_X = st.one_of(
    st.sampled_from(NAMED_X),
    st.builds(_near, st.integers(-1, 1), st.integers(1, 60), st.sampled_from([-1, 1])),
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
)


@PROPERTY
@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 5),
                          ADVERSARIAL_X), min_size=1, max_size=40))
@example([(lo, n, x) for x in NAMED_X for lo, n in ((0, 1), (-10 ** 6, 10 ** 5), (7, 3))])
def test_linear_exp_sums_match_the_scalar_form(cases):
    # the scalar closed form by mpmath at 50 digits: the exact phase
    # reduction holds for n x of many turns, large |n| of either sign, and
    # x with a huge exponent
    assert_matches_mpmath([a for a, _, _ in cases], [a + n for a, n, _ in cases],
                          [x for _, _, x in cases])


@PROPERTY
@given(st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(2 ** 12, 10 ** 5),
                          st.floats(0.0, 1.0), st.sampled_from([-1, 1])),
                min_size=1, max_size=20))
def test_wide_residues_fold_the_sine(cases):
    # |x| < 2^-11 takes Python-integer residues; with count*|x| >= 1 the
    # sine's remainder wraps past 1 and 2, so the fold is exercised there
    lo, hi, xs = [], [], []
    for a, count, u, sign in cases:
        turns = 1 + u * (count * 2.0 ** -11 - 1)      # count*|x| in [1, count 2^-11]
        x = sign * min(turns / count, math.nextafter(2.0 ** -11, 0))
        assert abs(x) < 2.0 ** -11 and count * abs(x) >= 1 - 1e-12
        lo.append(a)
        hi.append(a + count)
        xs.append(x)
    assert_matches_mpmath(lo, hi, xs)


def test_centring_phase_just_below_an_integer_keeps_its_sign():
    # ((a + b) x/2) mod 1 within 2^-54 below 1 rounds onto 1.0, and e(1.0)
    # has imaginary part -2.45e-16; the negative remainder keeps the
    # imaginary part of the sum to the last bits
    cases = [(0, 10, -2.0 ** -60), (-7, 3, 2.0 ** -60), (-20, 15, 3 * 2.0 ** -70),
             (0, 10, -5e-300),
             # uint64 residues: (a + b) mant = -1 mod 2^64
             (-2 ** 51 - 5, -2 ** 51 + 5, -(1 + 2.0 ** -52) * 2.0 ** -11)]
    lo, hi, xs = zip(*cases)
    for got, (a, b, x) in zip(linear_exp_sums(lo, hi, xs).tolist(), cases):
        want = mp_exp_sum(a, b, x)
        assert abs(got.imag - want.imag) <= 1e-13 * abs(want.imag), (a, b, x, got, want)


@PROPERTY
@given(st.integers(1, 200), ADVERSARIAL_X.filter(lambda x: x != math.floor(x)))
@example(10, 5e-324)
@example(10, -2.0 ** -60)
@example(10, -(1 - 2.0 ** -53))
def test_scalar_form_matches_the_naive_sum(count, x):
    # the folded sine keeps x just below an integer finite, on both sides
    # of 0, and a subnormal x exact
    naive = sum(complex(math.cos(2 * math.pi * float(Fraction(n) * Fraction(x) % 1)),
                        math.sin(2 * math.pi * float(Fraction(n) * Fraction(x) % 1)))
                for n in range(1, count + 1))
    assert abs(linear_exp_sum(0, count, x) - naive) <= 1e-10


def test_linear_exp_sums_empty_ranges():
    assert linear_exp_sums(np.array([5, 2]), np.array([5, 5]), np.array([0.3, 0.0])).tolist() \
        == [0j, 3 + 0j]
    with pytest.raises(ValueError):
        linear_exp_sums([3], [2], [0.1])


# ---------------------------------------------------------------------------
# type I
# ---------------------------------------------------------------------------

@PROPERTY
@given(st.integers(40, 400), st.integers(0, 100), st.sampled_from(ALPHAS),
       st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4),
       st.sampled_from([1, 7, 64, 4096]))
def test_type_i_kernel_matches_naive_block(X, y_pct, alpha, coeffs, chunk):
    ctx = make_ctx(X, X * y_pct // 100, alpha)
    rows = vaughan._type_i_rows(ctx, len(coeffs))
    got = with_chunk(chunk, vaughan._suffix_maxima, ctx.oracle, rows,
                     list(enumerate(coeffs, start=1)))
    for (m, n_lo, n_hi), g in zip(rows, got.tolist()):
        want = naive_type_i_block(m, n_lo, n_hi, coeffs, ctx.frac)
        assert abs(g - want) <= 1e-10 * max(1.0, want), (m, n_lo, n_hi)


# ---------------------------------------------------------------------------
# quadruple counts
# ---------------------------------------------------------------------------

@PROPERTY
@given(st.integers(16, 400), st.integers(0, 100), st.integers(1, 8), st.data())
def test_gamma_counts_match_brute_force_for_every_label(X, y_pct, H, data):
    Y = X * y_pct // 100
    M = data.draw(st.integers(max(1, X // 32), max(1, X // 4)))
    l_cap = 2 * X * H // M
    labels = range(-l_cap, l_cap + 1)
    brute = brute_force_quadruples(X, Y, M, H)
    counts = gamma_counts(labels, H, M, X, Y)
    assert [list(c) for c in counts] == [brute.get(l, [0, 0]) for l in labels]


# ---------------------------------------------------------------------------
# the banded T4/T5 split
# ---------------------------------------------------------------------------

def _brute_pairs(ctx, M):
    X, Y = ctx.X, ctx.Y
    outer_lo = max(ctx.n_cut_type_ii(), (X - Y) // M) + 1
    outer = [n for n in range(outer_lo, 2 * X // M + 1) if ctx.coeffs.b[n]]
    empties, longest = 0, 0
    for n1 in outer:
        for n2 in outer:
            lo = max(M // 2, (X - Y) // min(n1, n2))
            hi = min(M, X // max(n1, n2))
            if hi <= lo:
                empties += 1
            else:
                longest = max(longest, hi - lo)
    return empties, longest


@PROPERTY
@given(st.integers(100, 3000), st.integers(0, 100), st.sampled_from(ALPHAS),
       st.sampled_from([7, 4096]), st.data())
def test_banded_split_matches_pair_enumeration(X, y_pct, alpha, chunk, data):
    ctx = make_ctx(X, X * y_pct // 100, alpha)
    M = data.draw(st.sampled_from(dyadic_m_blocks(X)))
    H = data.draw(st.sampled_from(dyadic_h_blocks(ctx.L)))
    split = with_chunk(chunk, t3_t4_t5_split, H, M, ctx)
    assert (split.empty_pair_count, split.max_m_range_len) == _brute_pairs(ctx, M)
    assert split.identity_residual <= SPLIT_RESIDUAL_TOL


def test_split_is_independent_of_the_chunk():
    ctx = make_ctx(1000, 300)
    small = with_chunk(7, t3_t4_t5_split, 4, 16, ctx)
    large = with_chunk(4096, t3_t4_t5_split, 4, 16, ctx)
    assert small.t3 == pytest.approx(large.t3, rel=1e-13)
    assert abs(small.t4 - large.t4) <= 1e-12 * large.t3
    assert (small.empty_pair_count, small.max_m_range_len) == \
        (large.empty_pair_count, large.max_m_range_len)
    assert with_chunk(7, t2_sum, 4, 16, ctx).value == \
        pytest.approx(with_chunk(4096, t2_sum, 4, 16, ctx).value, rel=1e-13)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def _row_cells(ctx, H, ms):
    """(m, n, h) cells of the type II rows of ms, counted one by one."""
    cells = 0
    for m in ms:
        n_lo = max(ctx.n_cut_type_ii(), (ctx.X - ctx.Y) // m) + 1
        cells += max(0, ctx.X // m - n_lo + 1)
    return cells * len(vaughan._h_weights(ctx.kernel, H))


def test_split_checks_the_direct_route_budget_before_any_row_walk(monkeypatch):
    H, M = 4, 16
    cost = _row_cells(make_ctx(1000, 300), H, range(M // 2 + 1, M + 1))
    ctx = make_ctx(1000, 300, budget=cost - 1)

    def walked(*args):
        raise AssertionError("a row was walked before the budget check")

    monkeypatch.setattr(vaughan, "_type_ii_rows", walked)
    with pytest.raises(BudgetExceeded, match="type II cost"):
        t3_t4_t5_split(H, M, ctx)


def test_t2_budget_is_its_row_cells():
    H, M = 4, 16
    ctx = make_ctx(1000, 300)
    cost = _row_cells(ctx, H, [m for m in range(M // 2 + 1, M + 1) if ctx.tables.lam_p[m]])
    assert t2_sum(H, M, make_ctx(1000, 300, budget=cost)).value > 0
    with pytest.raises(BudgetExceeded, match="type II cost"):
        t2_sum(H, M, make_ctx(1000, 300, budget=cost - 1))


# ---------------------------------------------------------------------------
# the min-sum cap switch
# ---------------------------------------------------------------------------

def _exact_min_sum(oracle, M, N):
    """Terms decided with exact rationals; values as floats, summed with fsum."""
    Q = oracle.anchor.q
    terms, flags = [], 0
    err = Fraction(oracle.n_max, Q * Q)
    for m in range(1, M + 1):
        t = m * oracle.residue % Q
        v = Fraction(min(t, Q - t), Q)
        terms.append(N if v < 1 / Fraction(N) else 1.0 / float(v))
        flags += v - err < 1 / Fraction(N) <= v + err
    return math.fsum(terms), flags


def test_min_sum_cap_switch_within_one_ulp_is_exact():
    # one term, ||alpha|| = t/Q, and caps N within three ulps of Q/t, so
    # 1/N is that close to t/Q: comparing t/Q with 1/N, or (t/Q)*N with 1,
    # in floats gets some verdicts wrong, and the term then reads 1/v for N
    # or N for 1/v; the exact switch gets every verdict right
    wrong = {"t/Q < 1/N": 0, "(t/Q)*N < 1": 0}
    for d in range(2, 300):
        if math.isqrt(d) ** 2 == d:
            continue
        oracle = build_angle_oracle(AlphaSpec.sqrt(d), n_max=10)
        Q = oracle.anchor.q
        t = min(oracle.residue, Q - oracle.residue)
        v = t / Q
        N = Q / t
        for _ in range(3):
            N = math.nextafter(N, 0)
        for _ in range(7):
            exact = Fraction(t, Q) < 1 / Fraction(N)
            if N != 1.0 / v:
                wrong["t/Q < 1/N"] += (v < 1.0 / N) != exact
                wrong["(t/Q)*N < 1"] += (v * N < 1.0) != exact
            got = min_sum(MinSumInstance(M=1, N=N, oracle=oracle, q=1))
            assert got.value == (N if exact else 1.0 / v), (d, N)
            N = math.nextafter(N, math.inf)
    assert all(wrong.values()), wrong


def test_min_sum_decides_the_cap_switch_through_classify(monkeypatch):
    # a term whose 1/N lies within an ulp of ||alpha|| is left to the
    # exact integer path of AngleOracle.classify; a term far from the
    # switch is settled by the float filter
    decide = alpha_module._decide_exactly
    seen = []

    def spy(ms, *args):
        seen.append(list(ms))
        return decide(ms, *args)

    monkeypatch.setattr(alpha_module, "_decide_exactly", spy)
    oracle = build_angle_oracle(AlphaSpec.sqrt(2), n_max=10)
    Q = oracle.anchor.q
    t = min(oracle.residue, Q - oracle.residue)
    N = Q / t
    got = min_sum(MinSumInstance(M=1, N=N, oracle=oracle, q=1))
    assert seen == [[t]]
    assert got.value == (N if Fraction(t, Q) < 1 / Fraction(N) else 1.0 / (t / Q))
    seen.clear()
    min_sum(MinSumInstance(M=1, N=2.0, oracle=oracle, q=1))
    assert seen == []


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(ALPHAS), st.integers(1, 3000), st.floats(1.0, 1e4),
       st.sampled_from([2.0 ** -40, 2.0 ** -12, 0.2]))
def test_min_sum_matches_exact_rationals(alpha, M, N, err_target):
    oracle = build_angle_oracle(alpha, n_max=3000, err_target=err_target)
    value, flags = _exact_min_sum(oracle, M, N)
    got = min_sum(MinSumInstance(M=M, N=N, oracle=oracle, q=1))
    assert (got.value, got.switch_flags) == (value, flags)
