"""Bilinear decomposition of von Mangoldt sums and the associated bound chains.

The identity implemented here is the classical three-piece decomposition,
valid for every n > U when U, V >= 1:

    Lambda(n) = A1 - A2 - A3,
    A1 = sum_{bc = n, b <= V}          mu(b) log c,
    A2 = sum_{bcd = n, b <= V, c <= U} mu(b) Lambda(c),
    A3 = sum_{dm = n, d > U, m > V}    Lambda(d) beta(m),

with beta(m) = sum_{e | m, e <= V} mu(e), |beta(m)| <= tau(m).  Feeding the
smoothed weight through it produces a type I sum (long smooth inner range)
and a type II bilinear sum; after dyadic splitting these become T1(H) and
T2(H, M), whose exact values and theoretical comparators are computed side
by side below.

All summation ranges are resolved with integer comparisons (n > X^{1/3} as
n^3 > X, n <= X/m as n*m <= X, ...), so rearranged routes such as the
Cauchy-Schwarz opening T3 = T4 + T5 run over identical index sets and agree
to floating-point rounding.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .alpha import AngleOracle
from .config import DEFAULT_BUDGET
from .expsum import MinSumInstance, linear_exp_sum, min_sum, standard_estimate_bound
from .report import SumReport
from .sieve import SmallTables, iroot
from .smoothing import SmoothingKernel

__all__ = [
    "BudgetExceeded",
    "VaughanParams",
    "BilinearCoeffs",
    "SumContext",
    "vaughan_pieces",
    "b_coeff",
    "s1_type_i",
    "t1_sum",
    "t2_sum",
    "t3_t4_t5_split",
    "TypeIISplit",
    "gamma_counts",
    "t2_bound_chain",
    "dyadic_h_blocks",
    "dyadic_m_blocks",
]


class BudgetExceeded(RuntimeError):
    """Naive cost model of the requested sum exceeds the operation budget."""


@dataclass(frozen=True)
class VaughanParams:
    """Cut parameters of the decomposition.  Requires U, V >= 1, U V <= X."""

    U: float
    V: float
    X: int

    def __post_init__(self):
        if self.U < 1 or self.V < 1:
            raise ValueError("need U, V >= 1")
        if self.U * self.V > self.X:
            raise ValueError("need U*V <= X")


def _divisors(n: int) -> list:
    out = []
    for d in range(1, math.isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def b_coeff(n: int, V: float, tables: SmallTables) -> int:
    """beta(n) = sum over divisors d <= V of mu(d); |beta(n)| <= tau(n)."""
    cut = min(int(V), n)
    total = 0
    for d in range(1, cut + 1):
        if n % d == 0:
            total += int(tables.mu[d])
    return total


def vaughan_pieces(n: int, params: VaughanParams, tables: SmallTables):
    """(A1, A2, A3) with Lambda(n) = A1 - A2 - A3 for n > U.

    Divisor sums are enumerated directly; Lambda and mu values come from
    the tables, which must cover n.
    """
    if n <= params.U:
        raise ValueError(f"identity needs n > U (n={n}, U={params.U})")
    if n > tables.limit:
        raise ValueError("tables do not cover n")
    U, V = params.U, params.V
    divs = _divisors(n)
    a1_terms = []
    a2_terms = []
    a3_terms = []
    for b in divs:
        if b > V:
            break
        mu_b = int(tables.mu[b])
        if mu_b == 0:
            continue
        rest = n // b
        a1_terms.append(mu_b * math.log(rest))
        # c runs over prime powers <= U dividing rest
        for c in _divisors(rest):
            if c > U:
                break
            if tables.lam_p[c]:
                a2_terms.append(mu_b * math.log(int(tables.lam_p[c])))
    for d in divs:
        if d > U and tables.lam_p[d]:
            m = n // d
            if m > V:
                a3_terms.append(math.log(int(tables.lam_p[d])) * b_coeff(m, V, tables))
    return math.fsum(a1_terms), math.fsum(a2_terms), math.fsum(a3_terms)


# ---------------------------------------------------------------------------
# evaluation context and dyadic blocks
# ---------------------------------------------------------------------------

@dataclass
class SumContext:
    """Everything the T-sum evaluators need about one experiment instance.

    The oracle must cover arguments up to X * L (type I phases l*m with
    l <= L, m <= X^{2/3}, and the quadruple labels l up to 2XH/M).
    """

    X: int
    Y: int
    delta: float
    eps: float
    oracle: AngleOracle
    kernel: SmoothingKernel
    tables: SmallTables
    budget: float = DEFAULT_BUDGET

    def __post_init__(self):
        if not (0 <= self.Y <= self.X):
            raise ValueError("need 0 <= Y <= X")
        # type II blocks touch Lambda(m) for m <= X^(2/3) and tau(n) for
        # n <= 2X/M + 1 <= 2 X^(2/3) + 1
        if self.tables.limit < 2 * iroot(self.X * self.X, 3) + 1:
            raise ValueError("tables must cover 2*X^(2/3) + 1")

    @property
    def L(self) -> int:
        return self.kernel.L

    def frac(self, n: int) -> float:
        return self.oracle.frac(n)[0]

    def m_max_type_i(self) -> int:
        # largest m with m <= X^{2/3}, i.e. m^3 <= X^2
        return iroot(self.X * self.X, 3)

    def n_cut_type_ii(self) -> int:
        # smallest n with n > X^{1/3} is this value + 1
        return iroot(self.X, 3)

    @cached_property
    def coeffs(self) -> "BilinearCoeffs":
        """b(n) for every n the tables cover, built once per context.

        V is the integer floor of X^{1/3}: divisors d <= X^{1/3} iff d <= floor.
        """
        return BilinearCoeffs.build(self.tables.limit, float(self.n_cut_type_ii()),
                                    self.tables)


@dataclass(frozen=True)
class BilinearCoeffs:
    """Type II coefficient tables for one instance: a(m) = Lambda(m), b(n), c(h).

    b(n) = beta(n) enters the decomposition with a minus sign (the type II
    piece is -A3); magnitudes are all the bound chains use, and
    |b(n)| <= tau(n), |c(h)| <= 1 are checked at build time.
    """

    V: float
    b: tuple       # b[n] for 0 <= n <= n_limit
    n_limit: int

    @staticmethod
    def build(n_limit: int, V: float, tables: SmallTables) -> "BilinearCoeffs":
        # divisor sieve: every d <= V adds mu(d) to its multiples
        beta = np.zeros(n_limit + 1, dtype=np.int64)
        for d in range(1, min(int(V), n_limit) + 1):
            if tables.mu[d]:
                beta[d::d] += tables.mu[d]
        bad = np.flatnonzero(np.abs(beta) > tables.tau[:n_limit + 1])
        if bad.size:
            raise AssertionError(f"|b({bad[0]})| exceeds tau({bad[0]})")
        return BilinearCoeffs(V=V, b=tuple(beta.tolist()), n_limit=n_limit)


def dyadic_h_blocks(L: int):
    """Real dyadic labels H = L, L/2, L/4, ... >= 1 covering 0 < h <= L."""
    out = []
    H = float(L)
    while H >= 1.0:
        out.append(H)
        H /= 2.0
    return out[::-1]


def _h_weights(kernel: SmoothingKernel, H: float):
    """(h, c(h)) over the dyadic block H/2 < h <= H."""
    h_lo, h_hi = int(H / 2) + 1, int(H)
    return [(h, kernel.c(h)) for h in range(h_lo, h_hi + 1)]


def dyadic_m_blocks(X: int):
    """Power-of-two labels M with X^{1/3} <= M <= X^{2/3} (exact integer tests)."""
    out = []
    M = 1
    while M * M * M <= X * X:
        if M * M * M >= X:
            out.append(M)
        M *= 2
    return out


# ---------------------------------------------------------------------------
# type I sums
# ---------------------------------------------------------------------------

def _type_i_rows(ctx: SumContext, phases: int) -> list:
    """The rows (m, n_lo, n_hi) of a type I sum, after the budget check.

    m runs over m <= X^{2/3} and n over (X-Y)/m < n <= X/m.  The cost is
    the n_hi - n_lo + 2 suffix starts of every row times ``phases``, the
    number of phases summed at each start.
    """
    X, Y = ctx.X, ctx.Y
    rows = [(m, (X - Y) // m + 1, X // m) for m in range(1, ctx.m_max_type_i() + 1)]
    cost = sum(n_hi - n_lo + 2 for _, n_lo, n_hi in rows) * phases
    if cost > ctx.budget:
        raise BudgetExceeded(f"type I cost {cost:.3g} exceeds budget {ctx.budget:.3g}")
    return rows


def _suffix_max(xs, coeffs, n_lo: int, n_hi: int) -> float:
    """max over n_lo <= k <= n_hi + 1 of |sum_l coeffs[l] * sum_{k<=n<=n_hi} e(n xs[l])|.

    k = n_hi + 1 gives the empty suffix.
    """
    best = 0.0
    for k in range(n_lo, n_hi + 2):
        total = 0j
        for c, x in zip(coeffs, xs):
            total += c * linear_exp_sum(k - 1, n_hi, x)
        best = max(best, abs(total))
    return best


def _min_sum_chain(ctx: SumContext, H: float, q: int):
    """(M, K, cap, min_sum) of the k = h*m comparator chain of one dyadic H.

    M runs over 1, 2, 4, ... <= X^{2/3} and then X^{2/3} itself; the
    min-sum runs over k <= K = MH with the cap max(1, Y/M).
    """
    m_max = ctx.m_max_type_i()
    labels = [1 << i for i in range(m_max.bit_length())]
    if labels[-1:] != [m_max]:
        labels.append(m_max)
    for M in labels:
        K = int(M * H)
        if K >= 1:
            cap = max(1.0, ctx.Y / M)
            yield M, K, cap, min_sum(MinSumInstance(M=K, N=cap, oracle=ctx.oracle, q=q)).value


def s1_type_i(ctx: SumContext, q: int) -> SumReport:
    """Exact type I sum with the full Fourier range 0 < l <= L.

    S1' = sum_{m <= X^{2/3}} max_w |sum_{w < n <= X/m} sum_l c(l) e(l m n alpha)|,
    the max running over the integer breakpoints of w in [(X-Y)/m, X].
    The comparator assembles the k = h*m min-sum chain over dyadic blocks.
    """
    L = ctx.L
    rows = _type_i_rows(ctx, L)
    coeffs = [ctx.kernel.c(l) for l in range(1, L + 1)]
    value = math.fsum(_suffix_max([ctx.frac(l * m) for l in range(1, L + 1)], coeffs, n_lo, n_hi)
                      for m, n_lo, n_hi in rows)

    bound_terms = {}
    comparator_parts = []
    for H in dyadic_h_blocks(L):
        for M, _K, _cap, measured in _min_sum_chain(ctx, H, q):
            comparator_parts.append(measured)
            bound_terms[f"chain.H{H:g}.M{M}.min_sum"] = measured
    bound_terms["comparator.total"] = math.fsum(comparator_parts)
    return _report("s1_type_i", ctx, value, bound_terms, q)


def _report(kind: str, ctx: SumContext, value: float, bound_terms: dict, q=None) -> SumReport:
    """|sum| against the main term Y, with the measured decay exponent -log(ratio)/log X."""
    report = SumReport(kind=kind, value=value, main_term=float(ctx.Y), q_used=q,
                       bound_terms=bound_terms)
    if report.ratio:
        report.measured_exponent = -math.log(report.ratio) / math.log(ctx.X)
    return report


def t1_sum(H: float, ctx: SumContext, q: int) -> SumReport:
    """Exact dyadic type I sum T1(H) with its standard-estimate comparator.

    T1(H) = sum_{H/2<h<=H} |c(h)| sum_{m<=X^{2/3}} max_w |sum_{w<n<=X/m} e(hmn alpha)|,
    the max over integer breakpoints of w in [(X-Y)/m, X/m].  Comparator
    terms follow the chain: per dyadic M, the exact min-sum over k <= MH
    capped at Y/M, its standard-estimate branch, and the three branch
    values of the first-chain condition.
    """
    X, Y = ctx.X, ctx.Y
    if not (1 <= H <= ctx.L):
        raise ValueError("need 1 <= H <= L")
    hcs = _h_weights(ctx.kernel, H)
    rows = _type_i_rows(ctx, len(hcs))
    value = math.fsum(
        abs(c) * math.fsum(_suffix_max([ctx.frac(h * m)], [1.0], n_lo, n_hi)
                           for m, n_lo, n_hi in rows)
        for h, c in hcs)

    bound_terms = {}
    chain_total = []
    for M, K, cap, measured in _min_sum_chain(ctx, H, q):
        branch, bound = standard_estimate_bound(K, cap, q)
        chain_total.append(measured)
        bound_terms[f"chain.M{M}.k_range"] = float(K)
        bound_terms[f"chain.M{M}.min_sum"] = measured
        bound_terms[f"chain.M{M}.std_bound"] = bound
        bound_terms[f"chain.M{M}.large_branch"] = 1.0 if branch == "large-M" else 0.0
    bound_terms["comparator.total"] = math.fsum(chain_total)
    # first-chain condition: max{Y/q, X^{2/3}, delta q} <= delta Y X^{-eta-2eps}
    bound_terms["ourfirstcond.Y_over_q"] = Y / q
    bound_terms["ourfirstcond.X_two_thirds"] = float(X) ** (2.0 / 3.0)
    bound_terms["ourfirstcond.delta_q"] = ctx.delta * q
    bound_terms["ourfirstcond.rhs_eta0"] = ctx.delta * Y * float(X) ** (-2 * ctx.eps)
    return _report("t1_sum", ctx, value, bound_terms, q)


# ---------------------------------------------------------------------------
# type II sums
# ---------------------------------------------------------------------------

def _type_ii_n_range(ctx: SumContext, m: int):
    n_lo = max(ctx.n_cut_type_ii(), (ctx.X - ctx.Y) // m) + 1
    return n_lo, ctx.X // m


def _inner_h_sum(hcs, x: float) -> complex:
    phase = cmath.exp(2j * math.pi * x)
    first = hcs[0][0]
    p = phase ** first
    total = hcs[0][1] * p
    for _, c in hcs[1:]:
        p *= phase
        total += c * p
    return total


def _type_ii_row(ctx: SumContext, hcs, m: int) -> complex:
    """sum_n b(n) sum_h c(h) e(hmn alpha) over the type II n-range of m."""
    b = ctx.coeffs.b
    n_lo, n_hi = _type_ii_n_range(ctx, m)
    inner = 0j
    for n in range(n_lo, n_hi + 1):
        if b[n]:
            inner += b[n] * _inner_h_sum(hcs, ctx.frac(m * n))
    return inner


def t2_sum(H: float, M: int, ctx: SumContext) -> SumReport:
    """Exact bilinear block T2(H, M) with a(m) = Lambda(m), b(n) = beta(n).

    T2(H,M) = sum_{M/2<m<=M} sum_{n} a(m) b(n) sum_{H/2<h<=H} c(h) e(hmn alpha),
    where n runs over max{X^{1/3}, (X-Y)/m} < n <= X/m.  The reported value
    is |T2|; real and imaginary parts land in bound_terms.
    """
    _check_block(H, M, ctx)
    hcs = _h_weights(ctx.kernel, H)
    ms = [m for m in range(M // 2 + 1, M + 1) if ctx.tables.lam_p[m]]
    cost = sum(max(0, n_hi - n_lo + 1)
               for n_lo, n_hi in (_type_ii_n_range(ctx, m) for m in ms)) * len(hcs)
    if cost > ctx.budget:
        raise BudgetExceeded("type II cost exceeds budget")
    total = 0j
    for m in ms:
        total += ctx.tables.mangoldt(m) * _type_ii_row(ctx, hcs, m)
    return _report("t2_sum", ctx, abs(total), {"t2_re": total.real, "t2_im": total.imag,
                                               "H": float(H), "M": float(M)})


def _check_block(H: float, M: int, ctx: SumContext):
    if not (1 <= H <= ctx.L):
        raise ValueError("need 1 <= H <= L")
    if not (M ** 3 >= ctx.X and M ** 3 <= ctx.X * ctx.X):
        raise ValueError("need X^(1/3) <= M <= X^(2/3)")


@dataclass
class TypeIISplit:
    """Cauchy-Schwarz opening of one block: T3 real, T4/T5 its two halves."""

    t3: float
    t4: complex
    t5: complex
    lambda_sq_sum: float       # sum of Lambda(m)^2 over the m-block
    max_m_range_len: int       # longest nonempty rearranged m-range
    empty_pair_count: int      # (n1, n2) pairs whose m-range vanished

    @property
    def identity_residual(self) -> float:
        s = self.t4 + self.t5
        scale = max(abs(self.t3), abs(s), 1e-30)
        return abs(self.t3 - s) / scale

    def cauchy_ok(self, t2_value: float) -> bool:
        """Cauchy-Schwarz |T2|^2 <= (sum Lambda(m)^2) T3, with 1e-9 slack for rounding."""
        return t2_value ** 2 <= self.lambda_sq_sum * self.t3 * (1 + 1e-9) + 1e-9


def t3_t4_t5_split(H: float, M: int, ctx: SumContext) -> TypeIISplit:
    """Open |.|^2 over the m-block and re-sum by (n1, n2) order.

    T3 = sum_m |sum_n b(n) sum_h c(h) e(hmn alpha)|^2 is evaluated
    directly; T4 (n1 <= n2) and T5 (n1 > n2) re-sum the expansion with the
    closed-form m-sum over max{M/2,(X-Y)/min(n1,n2)} < m <= min{M,X/max(n1,n2)}.
    T3 = T4 + T5 exactly; floating point leaves ~1e-12 relative residue.
    """
    X, Y = ctx.X, ctx.Y
    _check_block(H, M, ctx)
    hcs = _h_weights(ctx.kernel, H)
    b = ctx.coeffs.b
    m_lo, m_hi = M // 2 + 1, M
    # direct route
    t3 = math.fsum(abs(_type_ii_row(ctx, hcs, m)) ** 2 for m in range(m_lo, m_hi + 1))
    lam_sq = math.fsum(lam * lam for lam in map(ctx.tables.mangoldt, range(m_lo, m_hi + 1)))

    # rearranged route: outer (n1, n2), closed-form m-sums
    outer_lo = max(ctx.n_cut_type_ii(), (X - Y) // M) + 1
    outer_hi = 2 * X // M
    pairs = max(0, outer_hi - outer_lo + 1) ** 2
    if pairs * len(hcs) ** 2 > ctx.budget:
        raise BudgetExceeded("pair enumeration cost exceeds budget")
    t4 = 0j
    t5 = 0j
    max_len = 0
    empties = 0
    outer = [n for n in range(outer_lo, outer_hi + 1) if b[n]]
    for n1 in outer:
        for n2 in outer:
            lo = max(M // 2, (X - Y) // min(n1, n2))
            hi = min(M, X // max(n1, n2))
            if hi <= lo:
                empties += 1
                continue
            max_len = max(max_len, hi - lo)
            cell = 0j
            for h1, c1 in hcs:
                for h2, c2 in hcs:
                    l = h1 * n1 - h2 * n2
                    x = ctx.frac(l) if l else 0.0
                    cell += c1 * c2 * linear_exp_sum(lo, hi, x)
            contribution = b[n1] * b[n2] * cell
            if n1 <= n2:
                t4 += contribution
            else:
                t5 += contribution
    return TypeIISplit(
        t3=t3, t4=t4, t5=t5,
        lambda_sq_sum=lam_sq,
        max_m_range_len=max_len,
        empty_pair_count=empties,
    )


# ---------------------------------------------------------------------------
# quadruple counts
# ---------------------------------------------------------------------------

def gamma_counts(l: int, H: int, M: int, X: int, Y: int):
    """(gamma0, gamma1): quadruples with n1 h1 - n2 h2 = l, split by degeneracy.

    Box: X/(2M) < n1 <= n2 <= 2X/M, n2 - n1 <= 2Y/M, H/2 < h1, h2 <= H.
    gamma0 counts the part with l + (n2 - n1) h2 = 0 (equivalently h1 = h2),
    gamma1 the rest.  Enumerates (n1, n2, h2) and solves for h1.
    """
    if abs(l) * M > 2 * X * H:
        raise ValueError("l outside [-2XH/M, 2XH/M]")
    if X > 512 * M or H > 16:
        raise BudgetExceeded("enumeration budget: need X/M <= 512 and H <= 16")
    n_lo = X // (2 * M) + 1
    n_hi = 2 * X // M
    h_lo = H // 2 + 1
    g0 = g1 = 0
    for n1 in range(n_lo, n_hi + 1):
        for n2 in range(n1, n_hi + 1):
            if M * (n2 - n1) > 2 * Y:
                break
            k = n2 - n1
            for h2 in range(h_lo, H + 1):
                num = l + n2 * h2
                if num % n1:
                    continue
                h1 = num // n1
                if h_lo <= h1 <= H:
                    if l + k * h2 == 0:
                        g0 += 1
                    else:
                        g1 += 1
    return g0, g1


# ---------------------------------------------------------------------------
# bound chains
# ---------------------------------------------------------------------------

def t2_bound_chain(H: float, M: int, X: int, Y: int, delta: float, eps: float,
                   q: int) -> dict:
    """All closed-form terms and condition flags of the type II chain.

    Terms carry coefficient 1 with the X^{4 eps} factor explicit; the
    branch for M > sqrt(X) and its reversed-roles twin for M <= sqrt(X)
    are both reported, with `selected` naming the one in force.  The
    final-condition block compares the max of its eight terms against
    delta^2 Y^2 X^{-6 eps} (decay exponent set to zero; implied_eta
    reports how much slack remains).
    """
    Xf = float(X)
    amp = Xf ** (4 * eps)
    bound1 = {
        "Y2H2_over_q": Y * Y * H * H / q,
        "YH2M_over_q": Y * H * H * M / q,
        "XYH2_over_M": Xf * Y * H * H / M,
        "XH2": Xf * H * H,
        "YHq": Y * H * q,
        "HqM": H * q * M,
        "YHM": Y * H * M,
        "Xq": Xf * q,
    }
    bound2 = {
        "Y2H2_over_q": Y * Y * H * H / q,
        "XYH2_over_Mq": Xf * Y * H * H / (M * q),
        "YH2M": Y * H * H * M,
        "XH2": Xf * H * H,
        "YHq": Y * H * q,
        "XHq_over_M": Xf * H * q / M,
        "XYH_over_M": Xf * Y * H / M,
        "Xq": Xf * q,
    }
    selected = "T2bound1" if M * M > X else "T2bound2"
    active = bound1 if selected == "T2bound1" else bound2
    t2_sq_bound = amp * math.fsum(active.values())

    conditions = {
        "anothercond": M * Y >= X,                      # MY/X >= 1
        "newcondi": 2 * Y * H / M <= q / 2,             # 2YH/M <= q/2
        "transcond": Y >= math.sqrt(Xf) and q >= 4 * Y * H / math.sqrt(Xf),
        "qc_window": Y / (delta * Xf ** (0.5 - 2 * eps)) <= q
                     <= Y / (delta * Xf ** (0.5 - 3 * eps)),
    }

    final_terms = {
        "Y2_over_q": Y * Y / q,
        "X23Y_over_q": Xf ** (2.0 / 3.0) * Y / q,
        "X12Y": Xf ** 0.5 * Y,
        "X": Xf,
        "dYq": delta * Y * q,
        "dX23q": delta * Xf ** (2.0 / 3.0) * q,
        "dX23Y": delta * Xf ** (2.0 / 3.0) * Y,
        "d2Xq": delta * delta * Xf * q,
    }
    final_max = max(final_terms.values())
    final_rhs = delta * delta * Y * Y * Xf ** (-6 * eps)
    implied_eta = math.log(final_rhs / final_max) / math.log(Xf) if final_max > 0 else None

    return {
        "selected": selected,
        "amplifier_X4eps": amp,
        "t2bound1": bound1,
        "t2bound2": bound2,
        "t2_squared_bound": t2_sq_bound,
        "t2_bound": math.sqrt(t2_sq_bound),
        "conditions": conditions,
        "finalcondis": {
            "terms": final_terms,
            "max_term": final_max,
            "rhs_eta0": final_rhs,
            "satisfied_eta0": final_max <= final_rhs,
            "implied_eta": implied_eta,
        },
    }
