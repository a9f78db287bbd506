"""Property tests of the array kernels against independent oracles.

Every kernel of the bound suite has an oracle of its own: the array closed
form against mpmath at 50 digits, the type I suffix maxima against
reference.naive_type_i_block, the label-batched quadruple counts against
reference.brute_force_quadruples, and the banded T4/T5 split against a
plain (n1, n2) enumeration and the direct T3 route.  The shared-work
forms are checked bit for bit against the plain ones: the closed form
read from a phase table against the closed form at each phase, and the
type I walk over s1's weights and every harmonic against each harmonic
walked alone.  Hypothesis runs derandomized, so the examples are the
same on every run.
"""

import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from primeangle import acceptance, expsum, vaughan
from primeangle import alpha as alpha_module
from primeangle.acceptance import SPLIT_RESIDUAL_TOL
from primeangle.alpha import AlphaSpec, build_angle_oracle
from primeangle.config import DEFAULT_SEED, ExperimentConfig
from primeangle.experiments import run_bound_suite
from primeangle.expsum import (MinSumInstance, indexed_exp_sums, linear_exp_sum,
                               linear_exp_sums, min_sum, phase_table)
from primeangle.reference import brute_force_quadruples, naive_type_i_block
from primeangle.vaughan import (
    BudgetExceeded,
    SumContext,
    dyadic_h_blocks,
    dyadic_m_blocks,
    gamma_counts,
    s1_type_i,
    t1_sum,
    t2_sum,
    t3_t4_t5_split,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
ALPHAS = (AlphaSpec.sqrt(2), AlphaSpec.golden(), AlphaSpec.sqrt(7), AlphaSpec.sqrt(13))


# the bound-suite instance of these tests; the property tests replace X, Y and alpha
CONFIG = ExperimentConfig(X=1000, Y=300, delta=0.3, eps=0.05, alpha=ALPHAS[0])


def with_chunk(size, fn, *args):
    """fn(*args) with kernel passes of at most size cells; small sizes cut rows into tiles
    and build phase tables in pieces."""
    old, vaughan.CHUNK, expsum.CHUNK = vaughan.CHUNK, size, size
    try:
        return fn(*args)
    finally:
        vaughan.CHUNK = expsum.CHUNK = old


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


# x = 0, integral x, x = 1/2, +-2^-11 and its neighbours on both sides (the
# edge between the uint64 and the object route), +-2^-60
TABLE_X = (0.0, -0.0, 1.0, -3.0, 0.5, -0.5, 2.0 ** -11, -2.0 ** -11,
           math.nextafter(2.0 ** -11, 0), math.nextafter(2.0 ** -11, 1),
           -math.nextafter(2.0 ** -11, 0), -math.nextafter(2.0 ** -11, 1),
           2.0 ** -60, -2.0 ** -60)


@PROPERTY
@given(st.lists(ADVERSARIAL_X, min_size=1, max_size=30),
       st.lists(st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 5),
                          st.integers(0, 10 ** 3)), min_size=1, max_size=60),
       st.sampled_from([3, 4096]))
@example(list(TABLE_X), [(lo, n, i) for i in range(len(TABLE_X))
                         for lo, n in ((0, 1), (-10 ** 6, 10 ** 5), (7, 0), (-3, 2))], 3)
def test_indexed_closed_form_is_the_closed_form_at_each_phase(phases, cases, chunk):
    # the table's x-only parts, built chunk phases at a time and gathered
    # by index, give what the closed form gives at phases[idx], to the bit
    # (signed zeros too); empty ranges read 0 and negative lo wraps
    phases = np.array(phases)
    lo = np.array([a for a, _, _ in cases])
    hi = lo + np.array([n for _, n, _ in cases])
    idx = np.array([i % phases.size for _, _, i in cases])
    got = indexed_exp_sums(lo, hi, with_chunk(chunk, phase_table, phases), idx)
    want = linear_exp_sums(lo, hi, phases[idx])
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# type I
# ---------------------------------------------------------------------------

@PROPERTY
@given(st.integers(40, 400), st.integers(0, 100), st.sampled_from(ALPHAS),
       st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=1, max_size=4),
       st.sampled_from([1, 7, 64, 4096]))
def test_type_i_kernel_matches_naive_block(X, y_pct, alpha, coeffs, chunk):
    ctx = SumContext(replace(CONFIG, X=X, Y=X * y_pct // 100, alpha=alpha))
    rows = zip(*(a.tolist() for a in vaughan._type_i_rows(ctx, len(coeffs))))
    *_, got = with_chunk(chunk, vaughan._type_i_walk, ctx, range(1, len(coeffs) + 1),
                         np.array(coeffs))
    for (m, n_lo, n_hi), g in zip(rows, got.tolist()):
        want = naive_type_i_block(m, n_lo, n_hi, coeffs, lambda j: ctx.oracle.frac(j)[0])
        assert abs(g - want) <= 1e-10 * max(1.0, want), (m, n_lo, n_hi)


@PROPERTY
@given(st.integers(40, 600), st.integers(0, 100), st.sampled_from(ALPHAS),
       st.sampled_from([1, 7, 64, 4096]))
def test_one_type_i_walk_is_each_weight_set_walked_alone(X, y_pct, alpha, chunk):
    # s1's weights and every single harmonic h <= L share one walk; each
    # harmonic's maxima are those of the harmonic walked alone, to the bit
    ctx = SumContext(replace(CONFIG, X=X, Y=X * y_pct // 100, alpha=alpha))
    hs = range(1, ctx.L + 1)
    *shared, _s1 = with_chunk(chunk, vaughan._type_i_walk, ctx, hs, ctx.kernel.coeffs)
    for h, got in zip(hs, shared):
        alone, = with_chunk(chunk, vaughan._type_i_walk, ctx, [h])
        assert np.array_equal(got.view(np.uint64), alone.view(np.uint64))


@pytest.mark.parametrize("chunk", [7, 64, 4096])
def test_the_type_i_task_gives_s1_and_each_t1_as_walked_alone(chunk):
    ctx = SumContext(CONFIG)
    task, = [task for task in vaughan.suite_plan(ctx) if task.slot == "type_i"]
    fragment = with_chunk(chunk, task.run)
    *_, s1 = with_chunk(chunk, vaughan._type_i_walk, ctx, range(1, ctx.L + 1), ctx.kernel.coeffs)
    alone = with_chunk(chunk, s1_type_i, ctx, s1)
    assert fragment["s1"] == alone.as_dict()
    assert fragment["t1_blocks"] == [with_chunk(chunk, t1_sum, H, ctx).as_dict()
                                     for H in dyadic_h_blocks(ctx.L)]


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
    """(empty pairs, longest m-range, non-empty pairs) of the block M, pair by pair."""
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
    return empties, longest, len(outer) ** 2 - empties


@PROPERTY
@given(st.integers(100, 3000), st.integers(0, 100), st.sampled_from(ALPHAS),
       st.sampled_from([7, 4096]), st.data())
def test_banded_split_matches_pair_enumeration(X, y_pct, alpha, chunk, data):
    ctx = SumContext(replace(CONFIG, X=X, Y=X * y_pct // 100, alpha=alpha))
    M = data.draw(st.sampled_from(dyadic_m_blocks(X)))
    H = data.draw(st.sampled_from(dyadic_h_blocks(ctx.L)))
    split = with_chunk(chunk, t3_t4_t5_split, H, M, ctx)
    assert (split.empty_pair_count, split.max_m_range_len) == _brute_pairs(ctx, M)[:2]
    assert split.identity_residual <= SPLIT_RESIDUAL_TOL


def test_split_is_independent_of_the_chunk():
    ctx = SumContext(CONFIG)
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
    return cells * (int(H) - int(H / 2))


def test_split_checks_the_direct_route_budget_before_any_row_walk(monkeypatch):
    H, M = 4, 16
    cost = _row_cells(SumContext(CONFIG), H, range(M // 2 + 1, M + 1))
    ctx = SumContext(replace(CONFIG, budget=cost - 1))

    def walked(*args):
        raise AssertionError("a row was walked before the budget check")

    monkeypatch.setattr(vaughan, "_type_ii_rows", walked)
    with pytest.raises(BudgetExceeded, match="type II cost"):
        t3_t4_t5_split(H, M, ctx)


def test_t2_budget_is_its_row_cells():
    H, M = 4, 16
    ctx = SumContext(CONFIG)
    cost = _row_cells(ctx, H, [m for m in range(M // 2 + 1, M + 1) if ctx.tables.lam[m]])
    assert t2_sum(H, M, SumContext(replace(CONFIG, budget=cost))).value > 0
    with pytest.raises(BudgetExceeded, match="type II cost"):
        t2_sum(H, M, SumContext(replace(CONFIG, budget=cost - 1)))


def _spy(monkeypatch):
    """Counters of the cells charged and the cells built per stage, filled as kernels run.

    Type I and type II count the live cells of each tile times the phases
    the kernel forms over it (type I: one per harmonic it is given); the
    pairs count the elements handed to indexed_exp_sums.
    """
    charged, built, phases = Counter(), Counter(), []
    charge, tiles, sums = vaughan.charge, vaughan._tiles, vaughan.indexed_exp_sums

    def spy_charge(stage, cells, budget):
        charged[stage] += cells
        charge(stage, cells, budget)

    def spy_tiles(lengths):
        for r0, r1, j0, j1 in tiles(lengths):
            if phases:
                stage, count = phases[-1]
                built[stage] += count * sum(max(0, min(j1, n) - j0) for n in lengths[r0:r1])
            yield r0, r1, j0, j1

    def spy_sums(lo, hi, table, idx):
        built["pairs"] += len(lo)
        return sums(lo, hi, table, idx)

    def kernel(stage, fn, count):
        def run(*args):
            phases.append((stage, count(args)))
            try:
                return fn(*args)
            finally:
                phases.pop()
        return run

    monkeypatch.setattr(vaughan, "charge", spy_charge)
    monkeypatch.setattr(vaughan, "_tiles", spy_tiles)
    monkeypatch.setattr(vaughan, "indexed_exp_sums", spy_sums)
    monkeypatch.setattr(vaughan, "_type_i_walk",
                        kernel("type I", vaughan._type_i_walk, lambda args: len(args[1])))
    monkeypatch.setattr(vaughan, "_type_ii_rows",
                        kernel("type II", vaughan._type_ii_rows, lambda args: len(args[1][0])))
    return charged, built


@pytest.mark.parametrize("X,Y", [(1000, 300), (500, 150), (2000, 0), (2000, 1000)])
def test_each_stage_is_charged_the_cells_its_kernel_builds(X, Y, monkeypatch):
    # task by task: the tasks of the suite's plan, whose type I task walks
    # the rows once for s1 and every T1 and whose blocks read T2 off the
    # split's rows, then the t1 command's task of every H and the t2
    # command's task of every block
    ctx = SumContext(replace(CONFIG, X=X, Y=Y))
    charged, built = _spy(monkeypatch)
    hs = dyadic_h_blocks(ctx.L)
    tasks = (vaughan.suite_plan(ctx) + [vaughan.t1_task(ctx, H) for H in hs]
             + [vaughan.t2_task(ctx, H, M) for M in dyadic_m_blocks(X) for H in hs])
    slots = Counter(task.slot for task in tasks)
    assert slots["type_i"] == 1 and slots["t1"] == len(hs)
    assert slots["t2_blocks"] == slots["t2"] > 0
    total = Counter()
    for task in tasks:
        charged.clear()
        built.clear()
        task.charge()
        before = Counter(charged)
        task.run()
        assert built == before, task.slot
        total += built
    assert sorted(total) == (["pairs", "type I", "type II"] if Y else [])


def _count_row_walks(monkeypatch):
    walks = []
    walk = vaughan._type_ii_rows
    monkeypatch.setattr(vaughan, "_type_ii_rows", lambda *args: walks.append(1) or walk(*args))
    return walks


@pytest.mark.parametrize("X,blocks", [(1006, 9), (4021, 12), (16032, 15)])
def test_bounds_walks_the_type_ii_rows_once_per_block(X, blocks, monkeypatch):
    # the X of the bounds ladder of perfbench/workloads.py, seed 1
    walks = _count_row_walks(monkeypatch)
    result = run_bound_suite(replace(CONFIG, X=X, Y=X // 4), force=True)
    assert len(walks) == len(result["t2_blocks"]) == blocks


def test_criterion_6_walks_the_type_ii_rows_once_per_block(monkeypatch):
    walks = _count_row_walks(monkeypatch)
    record = acceptance.criterion_6(DEFAULT_SEED)
    assert record["passed"]
    assert len(walks) == len(record["blocks"]) > 0


def test_the_split_is_charged_its_band_not_its_box():
    # the (n1, n2) box of this block holds 6724 pairs, its band 303
    H, M = 5, 16
    ctx = SumContext(CONFIG)
    cost = _brute_pairs(ctx, M)[2] * (int(H) - int(H / 2)) ** 2
    split = t3_t4_t5_split(H, M, SumContext(replace(CONFIG, budget=cost)))
    assert split.identity_residual <= SPLIT_RESIDUAL_TOL
    with pytest.raises(BudgetExceeded, match=re.escape(f"pairs cost {cost:.3g} exceeds budget")):
        t3_t4_t5_split(H, M, SumContext(replace(CONFIG, budget=cost - 1)))


def test_bounds_charges_every_stage_before_its_first_kernel(monkeypatch):
    # the type I cost of s1 fits this budget, the band of some block does not
    X, Y = 30000, 7500
    config = replace(CONFIG, X=X, Y=Y)
    ctx = SumContext(config)
    type_i = sum(X // m - (X - Y) // m for m in range(1, ctx.m_max_type_i() + 1)) * ctx.L

    def kernel(*args):
        raise AssertionError("a kernel ran before the budget was charged")

    for name in ("_type_i_walk", "min_sum", "_type_ii_rows", "phase_table", "indexed_exp_sums"):
        monkeypatch.setattr(vaughan, name, kernel)
    with pytest.raises(BudgetExceeded, match="^pairs cost"):
        run_bound_suite(replace(config, budget=type_i), force=True)


# ---------------------------------------------------------------------------
# the min-sum cap switch
# ---------------------------------------------------------------------------

def _angle(alpha, m):
    """||m*alpha|| at 100 digits, alpha read from its surd."""
    with mpmath.workdps(100):
        x = m * (alpha.a + alpha.b * mpmath.sqrt(alpha.d)) / alpha.c
        return abs(x - mpmath.nint(x))


def _below_cap(alpha, m, N) -> bool:
    """||m*alpha|| < 1/N, from alpha at 100 digits."""
    with mpmath.workdps(100):
        return _angle(alpha, m) < 1 / mpmath.mpf(N)


def _exact_min_sum(oracle, M, N):
    """(value, fewest flags, most flags) with every cap switch decided against alpha.

    A term whose certified interval [v - err, v + err] lies on one side of
    1/N is decided by exact rationals, the others by alpha at 100 digits;
    an uncapped term reads min(N, 1/v).  The values are summed with fsum.
    The float filter leaves at least the straddling terms to alpha, and
    at most those within err + 2^-48 of 1/N.
    """
    Q = oracle.anchor.q
    err, cap = Fraction(oracle.n_max, Q * Q), 1 / Fraction(N)
    terms, fewest, most = [], 0, 0
    for m in range(1, M + 1):
        t = m * oracle.residue % Q
        v = Fraction(min(t, Q - t), Q)
        straddle = v - err < cap <= v + err
        below = _below_cap(oracle.alpha, m, N) if straddle else v < cap
        terms.append(N if below or not v else min(N, 1.0 / float(v)))
        fewest += straddle
        most += abs(v - cap) <= err + Fraction(1, 2 ** 48)
    return math.fsum(terms), fewest, most


def test_min_sum_cap_switch_within_one_ulp_is_exact():
    # one term, and caps N within three ulps of 1/||alpha||, so 1/N is that
    # close to ||alpha||: comparing ||alpha|| with 1/N, or ||alpha||*N with
    # 1, in floats gets some verdicts wrong, and the term then reads 1/v for
    # N or N for 1/v; the switch decided in alpha gets every verdict right
    wrong = {"a < 1/N": 0, "a*N < 1": 0}
    for d in range(2, 300):
        if math.isqrt(d) ** 2 == d:
            continue
        alpha = AlphaSpec.sqrt(d)
        oracle = build_angle_oracle(alpha, n_max=10)
        v = oracle.dist(1)[0]
        a = float(_angle(alpha, 1))
        N = 1.0 / a
        for _ in range(3):
            N = math.nextafter(N, 0)
        for _ in range(7):
            exact = _below_cap(alpha, 1, N)
            if N != 1.0 / a:
                wrong["a < 1/N"] += (a < 1.0 / N) != exact
                wrong["a*N < 1"] += (a * N < 1.0) != exact
            got = min_sum(MinSumInstance(M=1, N=N, oracle=oracle, q=1))
            assert got.value == (N if exact else min(N, 1.0 / v)), (d, N)
            N = math.nextafter(N, math.inf)
    assert all(wrong.values()), wrong


def test_min_sum_decides_the_cap_switch_through_verdicts(monkeypatch):
    # a term whose 1/N lies within an ulp of ||alpha|| is left by the float
    # filter of AngleOracle.verdicts and decided in alpha; a term far from
    # the switch is settled by the filter
    decide = alpha_module._below_in_alpha
    seen = []

    def spy(alpha, anchor, ns, delta):
        seen.append(list(ns))
        return decide(alpha, anchor, ns, delta)

    monkeypatch.setattr(alpha_module, "_below_in_alpha", spy)
    alpha = AlphaSpec.sqrt(2)
    oracle = build_angle_oracle(alpha, n_max=10)
    N = float(1 / _angle(alpha, 1))
    got = min_sum(MinSumInstance(M=1, N=N, oracle=oracle, q=1))
    assert seen == [[1]] and got.switch_flags == 1
    assert got.value == (N if _below_cap(alpha, 1, N) else min(N, 1.0 / oracle.dist(1)[0]))
    seen.clear()
    assert min_sum(MinSumInstance(M=1, N=2.0, oracle=oracle, q=1)).switch_flags == 0
    assert seen == []


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.sampled_from(ALPHAS), st.integers(1, 3000), st.floats(1.0, 1e4),
       st.sampled_from([2.0 ** -40, 2.0 ** -12, 0.2]))
def test_min_sum_matches_exact_rationals(alpha, M, N, err_target):
    oracle = build_angle_oracle(alpha, n_max=3000, err_target=err_target)
    value, fewest, most = _exact_min_sum(oracle, M, N)
    got = min_sum(MinSumInstance(M=M, N=N, oracle=oracle, q=1))
    assert got.value == value
    assert fewest <= got.switch_flags <= most
