"""Decomposition identity, T-sums vs naive re-summation, quadruple counts."""

import math
from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from primeangle import vaughan
from primeangle.alpha import AlphaSpec
from primeangle.config import ExperimentConfig, select_q
from primeangle.reference import (
    brute_force_quadruples,
    divisors,
    naive_mangoldt_pk,
    naive_mu,
    naive_tau,
    naive_type_i_block,
    naive_type_ii_block,
)
from primeangle.sieve import iroot, small_tables
from primeangle.vaughan import (
    BilinearCoeffs,
    BudgetExceeded,
    SumContext,
    VaughanParams,
    dyadic_h_blocks,
    dyadic_m_blocks,
    gamma_counts,
    s1_type_i,
    t1_sum,
    t2_bound_chain,
    t2_sum,
    t3_t4_t5_split,
    vaughan_pieces,
)

SQRT2 = AlphaSpec.sqrt(2)

TABLES_5K = small_tables(5000)
# the bound-suite instance of the T-sum tests; others replace X, Y or the budget
CONFIG = ExperimentConfig(X=200, Y=60, delta=0.3, eps=0.05, alpha=SQRT2)


def lone_walk(ctx):
    """The rows' maxima of s1's weights, as s1_type_i takes them."""
    return vaughan._type_i_walk(ctx, range(1, ctx.L + 1), ctx.kernel.coeffs)[-1]


# ---------------------------------------------------------------------------
# identity and coefficients
# ---------------------------------------------------------------------------

divisors_of = lru_cache(maxsize=None)(divisors)
mu_of = lru_cache(maxsize=None)(naive_mu)


@lru_cache(maxsize=None)
def mangoldt_of(n: int) -> float:
    pk = naive_mangoldt_pk(n)
    return math.log(pk[0]) if pk else 0.0


def naive_b(n: int, V: float) -> int:
    """b(n) = beta(n), the sum of mu(d) over the divisors d <= V of n, one n at a time."""
    return sum(mu_of(d) for d in divisors_of(n) if d <= V)


def naive_pieces(n: int, U: float, V: float):
    """(A1, A2, A3) at n by enumerating the divisors of n and of its cofactors."""
    a1, a2, a3 = [], [], []
    for b in divisors_of(n):
        if b <= V and mu_of(b):
            a1.append(mu_of(b) * math.log(n // b))
            a2.extend(mu_of(b) * mangoldt_of(c) for c in divisors_of(n // b) if c <= U)
    for d in divisors_of(n):
        if d > U and n // d > V:
            a3.append(mangoldt_of(d) * naive_b(n // d, V))
    return math.fsum(a1), math.fsum(a2), math.fsum(a3)


def pieces_at(n: int, U: float, V: float):
    a1, a2, a3 = vaughan_pieces(VaughanParams(U=U, V=V, X=5000), TABLES_5K)
    return a1[n], a2[n], a3[n]


def test_iroot():
    assert iroot(1000, 3) == 10
    assert iroot(999, 3) == 9
    assert iroot(10 ** 12, 3) == 10 ** 4
    assert iroot(0, 3) == 0


def test_pieces_prime():
    a1, a2, a3 = pieces_at(101, 4, 4)
    assert abs(a1 - math.log(101)) < 1e-12
    assert a2 == 0.0 and a3 == 0.0


def test_pieces_twelve():
    a1, a2, a3 = pieces_at(12, 4, 4)
    assert abs(a1 - (-math.log(2))) < 1e-12   # log 12 - log 6 - log 4
    assert abs(a2 - (-math.log(2))) < 1e-12
    assert a3 == 0.0


def test_pieces_thirty_five():
    a1, a2, a3 = pieces_at(35, 2, 2)
    assert abs(a1 - math.log(35)) < 1e-12
    assert a2 == 0.0
    assert abs(a3 - math.log(35)) < 1e-12  # Lambda(5) beta(7) + Lambda(7) beta(5)


@pytest.mark.parametrize("uv", [(4, 4), (10, 10), (17, 17)])
def test_identity_to_5000(uv):
    U, V = uv
    a1, a2, a3 = vaughan_pieces(VaughanParams(U=U, V=V, X=5000), TABLES_5K)
    assert len(a1) == len(a2) == len(a3) == 5001
    lam = TABLES_5K.lam.tolist()
    bad = [n for n in range(U + 1, 5001) if abs(lam[n] - (a1[n] - a2[n] - a3[n])) > 1e-9]
    assert not bad


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(X=st.integers(1, 2000), u=st.floats(0, 1), v=st.floats(0, 1),
       whole=st.booleans())
def test_pieces_match_a_per_n_enumeration(X, u, v, whole):
    # U = X^u and V <= X/U, so that 1 <= U, V and U V <= X; whole rounds them down
    U = X ** u
    V = max(1.0, (X / U) ** v)
    if whole:
        U, V = math.floor(U), math.floor(V)
    assume(U * V <= X)
    a1, a2, a3 = vaughan_pieces(VaughanParams(U=U, V=V, X=X), small_tables(X))
    for n in range(1, X + 1):
        want = naive_pieces(n, U, V)
        assert max(abs(got - w) for got, w in zip((a1[n], a2[n], a3[n]), want)) <= 1e-12, n
        if n > U:
            assert abs(mangoldt_of(n) - (a1[n] - a2[n] - a3[n])) <= 1e-12, n


def test_pieces_refuse_tables_short_of_x():
    with pytest.raises(ValueError, match="do not cover X=5001"):
        vaughan_pieces(VaughanParams(U=4, V=4, X=5001), TABLES_5K)


def test_b_coeff_values():
    assert BilinearCoeffs.build(1, 10, TABLES_5K).b[1] == 1
    assert BilinearCoeffs.build(6, 2, TABLES_5K).b[6] == 0     # mu(1) + mu(2)
    b30 = BilinearCoeffs.build(30, 5, TABLES_5K).b[30]
    assert b30 == -2                                            # 1 - 1 - 1 - 1
    assert abs(b30) <= naive_tau(30)


def test_b_coeff_bounded_by_tau():
    for V in (4, 17, 100):
        b = BilinearCoeffs.build(1999, V, TABLES_5K).b
        for n in range(1, 2000):
            assert abs(b[n]) <= TABLES_5K.tau[n]


def test_params_validated():
    with pytest.raises(ValueError):
        VaughanParams(U=0.5, V=4, X=100)
    with pytest.raises(ValueError):
        VaughanParams(U=20, V=20, X=100)
    for U, V, named in ((4, math.nan, "V=nan"), (math.nan, 4, "U=nan"),
                        (4, math.inf, "V=inf"), (-math.inf, 4, "U=-inf")):
        with pytest.raises(ValueError, match=f"finite cut, got {named}"):
            VaughanParams(U=U, V=V, X=100)


def test_sum_context_derives_from_config():
    ctx = SumContext(CONFIG)
    assert (ctx.X, ctx.Y, ctx.delta, ctx.eps, ctx.budget) == (200, 60, 0.3, 0.05, CONFIG.budget)
    assert ctx.L == ctx.kernel.L == CONFIG.L
    assert ctx.oracle.alpha == SQRT2
    assert ctx.oracle.n_max == 2 * 200 * CONFIG.L + 200
    assert ctx.oracle.ebound <= 2.0 ** -80
    assert ctx.tables.limit == 2 * iroot(200 * 200, 3) + 1
    assert SumContext(replace(CONFIG, X=10, Y=5)).tables.limit == 16
    for config in (CONFIG, replace(CONFIG, Y=20)):
        conv, in_window = select_q(config)
        other = SumContext(config)
        assert (other.q, other.q_in_window) == (conv.q, in_window)
    assert (ctx.q, ctx.q_in_window) == (29, True)
    with pytest.raises(ValueError, match="Y <= X"):
        SumContext(replace(CONFIG, Y=201))


# ---------------------------------------------------------------------------
# type I sums vs naive re-summation
# ---------------------------------------------------------------------------

def test_s1_matches_naive():
    ctx = SumContext(CONFIG)
    report = s1_type_i(ctx, lone_walk(ctx))
    coeffs = ctx.kernel.coeffs.tolist()
    naive_total = 0.0
    for m in range(1, ctx.m_max_type_i() + 1):
        n_hi = ctx.X // m
        n_lo = (ctx.X - ctx.Y) // m + 1
        naive_total += naive_type_i_block(m, n_lo, n_hi, coeffs, lambda j: ctx.oracle.frac(j)[0])
    assert naive_total > 0
    assert abs(report.value - naive_total) <= 1e-8 * max(1.0, abs(naive_total))


def test_s1_degenerate_empty_window():
    ctx = SumContext(replace(CONFIG, Y=0))
    report = s1_type_i(ctx, lone_walk(ctx))
    assert report.value == 0.0
    assert report.ratio is None


def test_t1_single_h_matches_naive():
    ctx = SumContext(CONFIG)
    report = t1_sum(1, ctx)
    naive_total = 0.0
    for m in range(1, ctx.m_max_type_i() + 1):
        n_hi = ctx.X // m
        n_lo = (ctx.X - ctx.Y) // m + 1
        naive_total += abs(ctx.kernel.coeffs[0]) * naive_type_i_block(
            m, n_lo, n_hi, [1.0], lambda j: ctx.oracle.frac(j)[0])
    assert abs(report.value - naive_total) <= 1e-8 * max(1.0, naive_total)


def test_t1_h2_matches_naive():
    ctx = SumContext(CONFIG)
    report = t1_sum(2, ctx)
    naive_total = 0.0
    for h in (2,):
        for m in range(1, ctx.m_max_type_i() + 1):
            n_hi = ctx.X // m
            n_lo = (ctx.X - ctx.Y) // m + 1
            x = ctx.oracle.frac(h * m)[0]
            best, running = 0.0, 0j
            for n in range(n_hi, n_lo - 1, -1):
                running += complex(math.cos(2 * math.pi * x * n),
                                   math.sin(2 * math.pi * x * n))
                best = max(best, abs(running))
            naive_total += abs(ctx.kernel.coeffs[h - 1]) * best
    assert abs(report.value - naive_total) <= 1e-8 * max(1.0, naive_total)


def test_t1_comparator_terms():
    # plug-in shape: M=8, H=2, q=29, Y=60 -> MH = 16 > q/2, bound HY/q + MH log q
    ctx = SumContext(CONFIG)
    report = t1_sum(2, ctx)
    assert report.bound_terms["chain.M8.k_range"] == 16.0
    assert report.bound_terms["chain.M8.large_branch"] == 1.0
    expected = 16 * (60 / 8) / 29 + 16 * math.log(29)
    assert abs(report.bound_terms["chain.M8.std_bound"] - expected) < 1e-9
    assert report.bound_terms["ourfirstcond.delta_q"] == pytest.approx(0.3 * 29)
    # recompute the measured chain entry term by term, bypassing min_sum
    direct = 0.0
    for k in range(1, 17):
        v, _ = ctx.oracle.dist(k)
        direct += min(60 / 8, 1 / v)
    assert report.bound_terms["chain.M8.min_sum"] == pytest.approx(direct, rel=1e-12)


def test_t1_non_dyadic_h():
    # H = 2.5 sums the same h = 2 as H = 2, but its chain runs over k <= 2.5 M
    ctx = SumContext(CONFIG)
    report, dyadic = t1_sum(2.5, ctx), t1_sum(2, ctx)
    assert report.value == dyadic.value
    assert report.bound_terms["chain.M8.k_range"] == 20.0
    assert ctx.min_sum_chain(2.5) != ctx.min_sum_chain(2)


def test_chains_evaluated_once_per_context(monkeypatch):
    calls = []
    counted = vaughan.min_sum
    monkeypatch.setattr(vaughan, "min_sum", lambda inst: calls.append(inst.M) or counted(inst))
    ctx = SumContext(CONFIG)
    s1 = s1_type_i(ctx, lone_walk(ctx))
    assert len(calls) == sum(key.startswith("chain.") for key in s1.bound_terms)
    before = len(calls)
    for H in dyadic_h_blocks(ctx.L):
        t1_sum(H, ctx)
    assert len(calls) == before


def test_t1_budget_guard():
    ctx = SumContext(replace(CONFIG, budget=10))
    with pytest.raises(BudgetExceeded):
        t1_sum(2, ctx)


# ---------------------------------------------------------------------------
# type II sums
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("X,Y,H,M", [(500, 150, 2, 16), (1000, 300, 4, 16),
                                     (1000, 300, 4, 64)])
def test_t2_matches_naive(X, Y, H, M):
    ctx = SumContext(replace(CONFIG, X=X, Y=Y))
    # the t2 command walks the rows of the prime powers m; the suite's block
    # reads T2 off the rows of the prime powers that its split hands over
    reports = [t2_sum(H, M, ctx), t2_sum(H, M, ctx, t3_t4_t5_split(H, M, ctx).rows)]
    hs = list(range(H // 2 + 1, H + 1))
    coeffs_b = {n: naive_b(n, ctx.n_cut_type_ii())
                for n in range(1, 2 * ctx.X // M + 2)}
    naive = naive_type_ii_block(
        m_values=range(M // 2 + 1, M + 1),
        a_of=lambda m: ctx.tables.lam[m],
        b_of=lambda n: coeffs_b[n],
        n_range_of=lambda m: (max(ctx.n_cut_type_ii(), (ctx.X - ctx.Y) // m) + 1,
                              ctx.X // m),
        h_range=hs,
        c_of=lambda h: ctx.kernel.coeffs[h - 1],
        frac_of=lambda j: ctx.oracle.frac(j)[0],
    )
    for report in reports:
        assert abs(report.value - abs(naive)) <= 1e-8 * max(1.0, abs(naive))
        assert report.bound_terms["t2_re"] == pytest.approx(naive.real, abs=1e-8)


@pytest.mark.parametrize("alpha", [SQRT2, AlphaSpec.sqrt(5), AlphaSpec.golden()])
def test_t2_alone_equals_the_suite_block(alpha):
    # the t2 command walks the rows of the prime powers m, packed into its own
    # tiles, and the suite's block those of every m; each row is summed in one
    # order whatever it is packed with, so the two print the same T2, bit for bit
    for X in (1000, 4012, 16027):
        ctx = SumContext(ExperimentConfig(X=X, Y=X // 4, delta=0.3, eps=0.05, alpha=alpha))
        blocks = [task.run() for task in vaughan.suite_plan(ctx) if task.slot == "t2_blocks"]
        assert blocks
        for block in blocks:
            alone = vaughan.t2_task(ctx, block["H"], block["M"]).run()
            assert {key: alone[key] for key in block["t2"]} == block["t2"], \
                (X, block["H"], block["M"])


def test_t2_empty_block_is_zero():
    # whole m-block beyond X^{2/3} is rejected by the precondition;
    # an admissible block whose n-ranges vanish gives value 0
    ctx = SumContext(replace(CONFIG, X=512, Y=8))
    report = t2_sum(1, 64, ctx)  # (X-Y)/m close to X/m: tiny or empty n-ranges
    assert report.value >= 0.0


def test_t2_block_validation():
    ctx = SumContext(replace(CONFIG, X=500, Y=150))
    with pytest.raises(ValueError):
        t2_sum(2, 4, ctx)     # M below X^{1/3}
    with pytest.raises(ValueError):
        t2_sum(200, 16, ctx)  # H above L


@pytest.mark.parametrize("X,Y,H,M", [
    (500, 150, 2, 16),
    (500, 150, 1, 32),
    (1000, 300, 2, 16),
    (1000, 300, 4, 64),
])
def test_t3_equals_t4_plus_t5(X, Y, H, M):
    ctx = SumContext(replace(CONFIG, X=X, Y=Y))
    split = t3_t4_t5_split(H, M, ctx)
    assert split.identity_residual <= 1e-9
    assert abs((split.t4 + split.t5).imag) <= 1e-9 * max(1.0, split.t3)


@pytest.mark.parametrize("X,Y,H,M", [(500, 150, 2, 16), (1000, 300, 2, 32)])
def test_cauchy_schwarz_inequality(X, Y, H, M):
    ctx = SumContext(replace(CONFIG, X=X, Y=Y))
    split = t3_t4_t5_split(H, M, ctx)
    t2 = t2_sum(H, M, ctx)
    assert t2.value ** 2 <= split.lambda_sq_sum * split.t3 * (1 + 1e-9) + 1e-9
    assert split.cauchy_ok(t2.value)
    assert not split.cauchy_ok(2 * math.sqrt(split.lambda_sq_sum * split.t3) + 1)


def test_m_range_length_bound():
    # every nonempty rearranged m-range has integer length <= 2MY/X + 1
    for X, Y, H, M in [(500, 150, 2, 16), (1000, 300, 2, 32)]:
        ctx = SumContext(replace(CONFIG, X=X, Y=Y))
        split = t3_t4_t5_split(H, M, ctx)
        assert split.max_m_range_len <= 2 * M * Y / X + 1


def test_empty_m_range_condition():
    # (n2 - n1) X >= n2 Y forces an empty rearranged m-range
    X, Y, M = 500, 150, 16
    for n1 in range(X // (2 * M) + 1, 2 * X // M + 1):
        for n2 in range(n1, 2 * X // M + 1):
            if (n2 - n1) * X >= n2 * Y:
                lo = max(M // 2, (X - Y) // n1)
                hi = min(M, X // n2)
                assert hi <= lo, (n1, n2)


# ---------------------------------------------------------------------------
# quadruple counts
# ---------------------------------------------------------------------------

def test_gamma_against_brute_force():
    X, Y, M, H = 256, 64, 32, 4
    brute = brute_force_quadruples(X, Y, M, H)
    total_fast = 0
    labels = range(-2 * X * H // M, 2 * X * H // M + 1)
    for l, (g0, g1) in zip(labels, gamma_counts(labels, H, M, X, Y)):
        want = brute.get(l, [0, 0])
        assert [g0, g1] == want, l
        total_fast += g0 + g1
    assert total_fast == sum(a + b for a, b in brute.values())  # mass conservation


def test_gamma_degenerate_support():
    X, Y, M, H = 256, 64, 32, 4
    labels = range(1, 2 * X * H // M + 1)  # positive l: no degenerate part
    assert all(g0 == 0 for g0, _ in gamma_counts(labels, H, M, X, Y))
    g0_floor = -(2 * Y * H // M) - 1
    if abs(g0_floor) * M <= 2 * X * H:
        [(g0, _)] = gamma_counts([g0_floor], H, M, X, Y)
        assert g0 == 0


def test_gamma_l_zero():
    X, Y, M, H = 256, 64, 32, 4
    [(g0, g1)] = gamma_counts([0], H, M, X, Y)
    n_count = 2 * X // M - X // (2 * M)
    h_count = H - H // 2
    assert g0 == n_count * h_count
    assert g0 <= 2 * X * H / M


def test_gamma1_divisor_bound():
    X, Y, M, H = 256, 64, 32, 4
    labels = (-7, -1, 3, 12)
    for l, (_, g1) in zip(labels, gamma_counts(labels, H, M, X, Y)):
        cap = 0
        for k in range(0, 2 * Y // M + 1):
            for h2 in range(H // 2 + 1, H + 1):
                if l + k * h2 != 0:
                    cap += naive_tau(abs(l + k * h2))
        assert g1 <= cap


def test_gamma_guards():
    with pytest.raises(ValueError):
        gamma_counts([0, 10 ** 9], 4, 32, 256, 64)
    with pytest.raises(BudgetExceeded):
        gamma_counts([0], 32, 32, 256, 64)
    with pytest.raises(BudgetExceeded):
        gamma_counts([0], 4, 1, 10 ** 6, 10 ** 5)


# ---------------------------------------------------------------------------
# bound chain
# ---------------------------------------------------------------------------

def test_chain_condition_flags():
    chain = t2_bound_chain(4, 10 ** 3, 10 ** 6, 10 ** 5, 0.45, 0.01, 300, True)
    assert chain["conditions"]["anothercond"] is True     # MY/X = 100 >= 1
    assert chain["conditions"]["newcondi"] is False       # 800 > 150


def test_chain_branch_selection():
    chain_hi = t2_bound_chain(3, 10 ** 4, 10 ** 6, 10 ** 5, 0.45, 0.01, 300, True)
    assert chain_hi["selected"] == "T2bound1"              # M = 10^4 > X^{1/2}
    chain_lo = t2_bound_chain(3, 10 ** 2, 10 ** 6, 10 ** 5, 0.45, 0.01, 300, True)
    assert chain_lo["selected"] == "T2bound2"


def test_chain_terms_plugin():
    X, Y, delta, H, M, q = 10 ** 6, 10 ** 5, 0.45, 3, 10 ** 4, 300
    chain = t2_bound_chain(H, M, X, Y, delta, 0.01, q, True)
    t = chain["t2bound1"]
    assert t["Y2H2_over_q"] == pytest.approx(Y * Y * H * H / q)
    assert t["Xq"] == pytest.approx(X * q)
    assert t["YHM"] == pytest.approx(Y * H * M)
    assert chain["t2_squared_bound"] == pytest.approx(
        X ** 0.04 * sum(t.values()))
    f = chain["finalcondis"]
    assert f["max_term"] == max(f["terms"].values())
    assert f["rhs_eta0"] == pytest.approx(delta ** 2 * Y ** 2 * X ** -0.06)


def test_dyadic_blocks():
    hs = dyadic_h_blocks(5)
    assert hs[-1] == 5.0 and all(1 <= h <= 5 for h in hs)
    assert all(b == 2 * a for a, b in zip(hs, hs[1:]))
    ms = dyadic_m_blocks(1000)
    assert all(M ** 3 >= 1000 and M ** 3 <= 1000 ** 2 for M in ms)
    assert ms == [16, 32, 64]


def test_gamma0_divisor_bound_negative_l():
    # degenerate part for l in [-2YH/M, -1]: gamma0(l) <= (2X/M) tau(|l|)
    X, Y, M, H = 256, 64, 32, 4
    labels = range(-(2 * Y * H // M), 0)
    for l, (g0, _) in zip(labels, gamma_counts(labels, H, M, X, Y)):
        assert g0 <= (2 * X // M) * naive_tau(abs(l)), l


@pytest.mark.parametrize("V", [1, 3, 10, 10 ** 6])
def test_coeffs_build_matches_b_coeff(V):
    limit = 400
    coeffs = BilinearCoeffs.build(limit, V, TABLES_5K)
    assert len(coeffs.b) == limit + 1
    assert all(coeffs.b[n] == naive_b(n, V) for n in range(1, limit + 1))


def test_s1_budget_guard():
    ctx = SumContext(replace(CONFIG, budget=10))
    with pytest.raises(BudgetExceeded, match="type I cost"):
        s1_type_i(ctx, lone_walk(ctx))
