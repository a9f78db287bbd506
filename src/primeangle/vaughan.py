"""Bilinear decomposition of von Mangoldt sums and the associated bound chains.

The identity implemented here is the classical three-piece decomposition,
valid for every n > U when U, V >= 1:

    Lambda(n) = A1 - A2 - A3,
    A1 = sum_{bc = n, b <= V}          mu(b) log c,
    A2 = sum_{bcd = n, b <= V, c <= U} mu(b) Lambda(c),
    A3 = sum_{dm = n, d > U, m > V}    Lambda(d) beta(m),

with beta(m) = sum_{e | m, e <= V} mu(e), |beta(m)| <= tau(m).  Each piece
is a Dirichlet convolution of tables, so vaughan_pieces forms all three for
every n <= X at once by slice sieves, reading beta from the same table the
type II sums use (BilinearCoeffs).  Feeding the smoothed weight through
the identity produces a type I sum (long smooth inner range) and a type II
bilinear sum; after dyadic splitting these become T1(H) and T2(H, M),
whose exact values and theoretical comparators are computed side by side
below.

All summation ranges are resolved with integer comparisons (n > X^{1/3} as
n^3 > X, n <= X/m as n*m <= X, ...), so rearranged routes such as the
Cauchy-Schwarz opening T3 = T4 + T5 run over identical index sets and agree
to floating-point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .alpha import AngleOracle, build_angle_oracle
from .config import ExperimentConfig, select_q
from .expsum import (CHUNK, MinSumInstance, indexed_exp_sums, min_sum, phase_table,
                     standard_estimate_bound)
from .report import SumReport
from .sieve import SmallTables, iroot, small_tables
from .smoothing import SmoothingKernel, build_kernel

__all__ = [
    "BudgetExceeded",
    "charge",
    "VaughanParams",
    "BilinearCoeffs",
    "SumContext",
    "vaughan_pieces",
    "s1_type_i",
    "t1_sum",
    "t2_sum",
    "t3_t4_t5_split",
    "Task",
    "suite_plan",
    "t1_task",
    "t2_task",
    "TypeIISplit",
    "gamma_enumerable",
    "gamma_counts",
    "t2_bound_chain",
    "dyadic_h_blocks",
    "dyadic_m_blocks",
]


class BudgetExceeded(RuntimeError):
    """A stage would build more cells than the budget allows (see charge)."""


def charge(stage: str, cells: int, budget: float) -> None:
    """The budget rule: a stage may build at most ``budget`` cells, counted from its ranges."""
    if cells > budget:
        raise BudgetExceeded(f"{stage} cost {cells:.3g} exceeds budget {budget:.3g}")


@dataclass(frozen=True)
class VaughanParams:
    """Cut parameters of the decomposition.  Requires finite U, V >= 1, U V <= X."""

    U: float
    V: float
    X: int

    def __post_init__(self):
        for name, cut in (("U", self.U), ("V", self.V)):
            if not math.isfinite(cut):
                raise ValueError(f"need a finite cut, got {name}={cut}")
        if self.U < 1 or self.V < 1:
            raise ValueError("need U, V >= 1")
        if self.U * self.V > self.X:
            raise ValueError("need U*V <= X")


def vaughan_pieces(params: VaughanParams, tables: SmallTables):
    """(A1, A2, A3) as float arrays over 0 <= n <= X; Lambda(n) = A1 - A2 - A3 for n > U.

    Each piece is a convolution of tables, formed by slice sieves: every
    b <= V with mu(b) != 0 adds mu(b) log k to A1 and mu(b) g(k) to A2 at
    n = bk, where g(k) is the sum of Lambda(c) over c | k, c <= U; every
    prime power d > U adds Lambda(d) beta(m) to A3 at n = dm, m > V, with
    beta the type II table of BilinearCoeffs.build.  A divisor is at most
    U (or V) iff it is at most the floor of U (or V).
    """
    X = params.X
    if X > tables.limit:
        raise ValueError(f"tables (limit {tables.limit}) do not cover X={X}")
    U, V = int(params.U), int(params.V)
    lam = tables.lam[:X + 1]
    logs = np.log(np.maximum(np.arange(X + 1), 1))
    g = np.zeros(X + 1)
    for c in np.flatnonzero(lam[:U + 1]).tolist():
        g[c::c] += lam[c]
    a1, a2, a3 = np.zeros(X + 1), np.zeros(X + 1), np.zeros(X + 1)
    for b in np.flatnonzero(tables.mu[:V + 1]).tolist():
        mu_b, top = int(tables.mu[b]), X // b + 1
        a1[b::b] += mu_b * logs[1:top]
        a2[b::b] += mu_b * g[1:top]
    beta = BilinearCoeffs.build(X, V, tables).b
    for d in np.flatnonzero(lam[:X // (V + 1) + 1]).tolist():
        if d > U:
            a3[d * (V + 1)::d] += lam[d] * beta[V + 1:X // d + 1]
    return a1, a2, a3


# ---------------------------------------------------------------------------
# evaluation context and dyadic blocks
# ---------------------------------------------------------------------------

class SumContext:
    """Everything the T-sum evaluators need about one experiment instance.

    Derived from the config alone:
    - the denominator q and whether it lies in the q window, by select_q;
    - the kernel, of length config.L;
    - the oracle, with err_target at most 2^-80, much deeper than the
      experiment default, so that rearranged evaluation routes agree to
      float rounding.  Its reach 2XL + X covers the type I phases l*m
      (l <= L, m <= X^{2/3}) and the quadruple labels up to 2XH/M;
    - the tables, up to 2 X^{2/3} + 1 and at least 16: type II blocks
      read Lambda(m) for m <= X^{2/3} and b(n) for n <= 2X/M + 1.
    """

    def __init__(self, config: ExperimentConfig):
        conv, self.q_in_window = select_q(config)
        self.q = conv.q
        X = config.X
        self.X, self.Y, self.delta, self.eps = X, config.Y, config.delta, config.eps
        self.budget, self.L = config.budget, config.L
        charge("kernel", self.L, self.budget)
        self.kernel = build_kernel(config.delta, self.L)
        self.oracle = build_angle_oracle(config.alpha, n_max=2 * X * self.L + X,
                                         err_target=min(config.err_target, 2.0 ** -80))
        self.tables = small_tables(max(2 * iroot(X * X, 3) + 1, 16))
        self._chains = {}

    def m_max_type_i(self) -> int:
        # largest m with m <= X^{2/3}, i.e. m^3 <= X^2
        return iroot(self.X * self.X, 3)

    def n_cut_type_ii(self) -> int:
        # smallest n with n > X^{1/3} is this value + 1
        return iroot(self.X, 3)

    def min_sum_chain(self, H: float) -> list:
        """[(M, K, cap, min_sum)] of the k = h*m comparator chain of the block H.

        M runs over 1, 2, 4, ... <= X^{2/3} and then X^{2/3} itself; the
        min-sum runs over k <= K = MH with the cap max(1, Y/M).  Each chain
        is evaluated on first use and kept.
        """
        if H not in self._chains:
            m_max = self.m_max_type_i()
            labels = sorted({1 << i for i in range(m_max.bit_length())} | {m_max})
            chain = []
            for M in labels:
                K = int(M * H)
                if K >= 1:
                    cap = max(1.0, self.Y / M)
                    instance = MinSumInstance(M=K, N=cap, oracle=self.oracle, q=self.q)
                    chain.append((M, K, cap, min_sum(instance).value))
            self._chains[H] = chain
        return self._chains[H]

    @cached_property
    def coeffs(self) -> "BilinearCoeffs":
        """b(n) for every n the tables cover, built once per context.

        V is the integer floor of X^{1/3}: divisors d <= X^{1/3} iff d <= floor.
        """
        return BilinearCoeffs.build(self.tables.limit, float(self.n_cut_type_ii()),
                                    self.tables)


@dataclass(frozen=True)
class BilinearCoeffs:
    """The type II coefficient b(n) = beta(n) = sum_{e | n, e <= V} mu(e) of one instance.

    It enters the decomposition with a minus sign (the type II piece is
    -A3); magnitudes are all the bound chains use, and |b(n)| <= tau(n) is
    checked at build time.  a(m) = Lambda(m) is SmallTables.lam, c(h) the kernel's.
    """

    b: np.ndarray  # int64 b[n] for 0 <= n <= the limit of build

    @staticmethod
    def build(limit: int, V: float, tables: SmallTables) -> "BilinearCoeffs":
        # divisor sieve: every d <= V adds mu(d) to its multiples
        beta = np.zeros(limit + 1, dtype=np.int64)
        for d in range(1, min(int(V), limit) + 1):
            if tables.mu[d]:
                beta[d::d] += tables.mu[d]
        bad = np.flatnonzero(np.abs(beta) > tables.tau[:limit + 1])
        if bad.size:
            raise AssertionError(f"|b({bad[0]})| exceeds tau({bad[0]})")
        return BilinearCoeffs(b=beta)


def dyadic_h_blocks(L: int):
    """Real dyadic labels H = L, L/2, L/4, ... >= 1 covering 0 < h <= L."""
    out = []
    H = float(L)
    while H >= 1.0:
        out.append(H)
        H /= 2.0
    return out[::-1]


def _h_weights(kernel: SmoothingKernel, H: float):
    """The arrays (h, c(h)) over the dyadic block H/2 < h <= H, for 1 <= H <= L."""
    if not (1 <= H <= kernel.L):
        raise ValueError("need 1 <= H <= L")
    h = np.arange(int(H / 2) + 1, int(H) + 1)
    return h, kernel.coeffs[h - 1]


def _m_block(ctx: SumContext, M: int) -> np.ndarray:
    """The m of the block M/2 < m <= M, for X^{1/3} <= M <= X^{2/3}."""
    if not (M ** 3 >= ctx.X and M ** 3 <= ctx.X * ctx.X):
        raise ValueError("need X^(1/3) <= M <= X^(2/3)")
    return np.arange(M // 2 + 1, M + 1)


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

def _type_i_rows(ctx: SumContext, phases: int):
    """The int64 arrays (m, n_lo, n_hi) of the type I rows, charged one cell per (m, n, phase).

    m runs over m <= X^{2/3} and n over (X-Y)/m < n <= X/m; ``phases`` is
    the number of phases summed at each n.
    """
    m = np.arange(1, ctx.m_max_type_i() + 1, dtype=np.int64)
    n_lo, n_hi = (ctx.X - ctx.Y) // m + 1, ctx.X // m
    charge("type I", int((n_hi - n_lo + 1).sum()) * phases, ctx.budget)
    return m, n_lo, n_hi


def _tiles(lengths):
    """Rectangles of at most CHUNK cells covering columns 0 <= j < lengths[r] of every row r.

    Yields (r0, r1, j0, j1): consecutive rows share a block while the
    block, padded to its longest row, stays within CHUNK cells; a longer
    row is a block of its own, cut into column tiles.  The tiles of a
    block come left to right, so a running sum can be carried across them.
    """
    r0 = 0
    while r0 < len(lengths):
        r1, widest = r0 + 1, lengths[r0]
        while r1 < len(lengths) and (r1 + 1 - r0) * max(widest, lengths[r1]) <= CHUNK:
            widest = max(widest, lengths[r1])
            r1 += 1
        step = max(1, CHUNK // (r1 - r0))
        for j0 in range(0, widest, step):
            yield r0, r1, j0, min(j0 + step, widest)
        r0 = r1


def _e(oracle: AngleOracle, ns) -> np.ndarray:
    """e(n alpha) over an integer array, from the exact residues of n."""
    return np.exp(2j * np.pi * oracle.fracs(ns))


def _type_i_walk(ctx: SumContext, ls, coeffs=None) -> np.ndarray:
    """The type I rows' suffix maxima: per harmonic l of ``ls`` and type I row (m, n_lo, n_hi),
    the max over n_lo <= k <= n_hi + 1 of

        |sum_{k<=n<=n_hi} e(n l m alpha)|,

    one table row per l; given ``coeffs``, a last row holds those of
    sum_i coeffs[i] e(n ls[i] m alpha).  Charged one cell per (m, n, l).
    Each tile forms e(n l m alpha) once per l, in the order of ls, and the
    weighted row sums them in that order; one fold then serves every row.
    Each row is summed from n = n_hi downwards, so its running sums are
    the suffix sums; k = n_hi + 1 is the empty suffix, worth 0.  Phases
    come from the exact residues of n l m.
    """
    m, n_lo, n_hi = _type_i_rows(ctx, len(ls))
    lengths = n_hi - n_lo + 1
    best = np.zeros((len(ls) + (coeffs is not None), len(m)))
    # one buffer holds every tile's table: with a fresh table per tile, glibc's heap kept
    # the freed ones, and a bounds run peaked about 1 MB higher
    table = np.empty(len(best) * CHUNK, dtype=np.complex128)
    for r0, r1, j0, j1 in _tiles(lengths.tolist()):
        if j0 == 0:
            run = np.zeros((len(best), r1 - r0, 1), dtype=np.complex128)
        j = np.arange(j0, j1)
        live = j < lengths[r0:r1, None]
        mn = m[r0:r1, None] * np.where(live, n_hi[r0:r1, None] - j, 0)
        sums = table[:len(best) * (r1 - r0) * (j1 - j0)].reshape(len(best), r1 - r0, j1 - j0)
        for i, l in enumerate(ls):
            sums[i] = _e(ctx.oracle, l * mn)
        if coeffs is not None:
            sums[-1] = sum(c * e for c, e in zip(coeffs, sums))
        sums *= live
        np.cumsum(sums, axis=2, out=sums)
        sums += run
        best[:, r0:r1] = np.maximum(best[:, r0:r1], np.abs(sums).max(axis=2))
        run = sums[:, :, -1:].copy()    # the next tile overwrites sums
    return best


def s1_type_i(ctx: SumContext, maxima) -> SumReport:
    """Exact type I sum with the full Fourier range 0 < l <= L.

    S1' = sum_{m <= X^{2/3}} max_w |sum_{w < n <= X/m} sum_l c(l) e(l m n alpha)|,
    the max running over the integer breakpoints of w in [(X-Y)/m, X].
    ``maxima`` are the rows' maxima, the weighted row of _type_i_walk
    over 1..L with the kernel's coefficients.  The comparator assembles
    the k = h*m min-sum chain over dyadic blocks.
    """
    value = math.fsum(maxima)

    bound_terms = {}
    comparator_parts = []
    for H in dyadic_h_blocks(ctx.L):
        for M, _K, _cap, measured in ctx.min_sum_chain(H):
            comparator_parts.append(measured)
            bound_terms[f"chain.H{H:g}.M{M}.min_sum"] = measured
    bound_terms["comparator.total"] = math.fsum(comparator_parts)
    return _report("s1_type_i", ctx, value, bound_terms, ctx.q)


def _report(kind: str, ctx: SumContext, value: float, bound_terms: dict, q=None) -> SumReport:
    """|sum| against the main term Y, with the measured decay exponent -log(ratio)/log X."""
    report = SumReport(kind=kind, value=value, main_term=float(ctx.Y), q_used=q,
                       bound_terms=bound_terms)
    if report.ratio:
        report.measured_exponent = -math.log(report.ratio) / math.log(ctx.X)
    return report


def t1_sum(H: float, ctx: SumContext, maxima=None) -> SumReport:
    """Exact dyadic type I sum T1(H) with its standard-estimate comparator.

    T1(H) = sum_{H/2<h<=H} |c(h)| sum_{m<=X^{2/3}} max_w |sum_{w<n<=X/m} e(hmn alpha)|,
    the max over integer breakpoints of w in [(X-Y)/m, X/m].  Comparator
    terms follow the chain: per dyadic M, the exact min-sum over k <= MH
    capped at Y/M, its standard-estimate branch, and the three branch
    values of the first-chain condition.  ``maxima`` maps each h of the
    block to its rows' maxima, as the suite's type I walk gives them;
    without them the rows are walked here for the block's h alone.
    """
    X, Y, q = ctx.X, ctx.Y, ctx.q
    hcs = _h_weights(ctx.kernel, H)
    if maxima is None:
        hs = hcs[0].tolist()
        maxima = dict(zip(hs, _type_i_walk(ctx, hs)))
    value = math.fsum(abs(c) * math.fsum(maxima[h]) for h, c in zip(*hcs))

    bound_terms = {}
    chain_total = []
    for M, K, cap, measured in ctx.min_sum_chain(H):
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

def _type_ii_n_range(ctx: SumContext, hcs, ms):
    """(m, n_lo, n_hi) arrays of the type II rows of ms, charged one cell per (m, n, h)."""
    m = np.asarray(ms, dtype=np.int64)
    n_lo, n_hi = np.maximum(ctx.n_cut_type_ii(), (ctx.X - ctx.Y) // m) + 1, ctx.X // m
    charge("type II", int(np.maximum(n_hi - n_lo + 1, 0).sum()) * len(hcs[0]), ctx.budget)
    return m, n_lo, n_hi


def _type_ii_rows(ctx: SumContext, hcs, ranges) -> np.ndarray:
    """sum_n b(n) sum_h c(h) e(hmn alpha) over the rows (m, n_lo, n_hi) of _type_ii_n_range."""
    b = ctx.coeffs.b
    m, n_lo, n_hi = ranges
    rows = np.zeros(len(m), dtype=np.complex128)
    for r0, r1, j0, j1 in _tiles(np.maximum(n_hi - n_lo + 1, 0).tolist()):
        n = n_lo[r0:r1, None] + np.arange(j0, j1)
        live = n <= n_hi[r0:r1, None]
        n = np.where(live, n, 0)
        mn = m[r0:r1, None] * n
        rows[r0:r1] += (b[n] * live * sum(c * _e(ctx.oracle, h * mn)
                                          for h, c in zip(*hcs))).sum(axis=1)
    return rows


def t2_sum(H: float, M: int, ctx: SumContext, rows=None) -> SumReport:
    """Exact bilinear block T2(H, M) with a(m) = Lambda(m), b(n) = beta(n).

    T2(H,M) = sum_{M/2<m<=M} sum_{n} a(m) b(n) sum_{H/2<h<=H} c(h) e(hmn alpha),
    where n runs over max{X^{1/3}, (X-Y)/m} < n <= X/m.  ``rows`` are the
    rows of every m of the block, as the split walks them; without them
    the rows of the prime powers m are walked here.  The reported value
    is |T2|; real and imaginary parts land in bound_terms.
    """
    hcs, ms = _h_weights(ctx.kernel, H), _m_block(ctx, M)
    if rows is None:
        ms = ms[ctx.tables.lam[ms] != 0]
        rows = _type_ii_rows(ctx, hcs, _type_ii_n_range(ctx, hcs, ms))
    total = complex((ctx.tables.lam[ms] * rows).sum())
    return _report("t2_sum", ctx, abs(total), {"t2_re": total.real, "t2_im": total.imag,
                                               "H": float(H), "M": float(M)})


@dataclass
class TypeIISplit:
    """Cauchy-Schwarz opening of one block: T3 real, T4/T5 its two halves."""

    t3: float
    t4: complex
    t5: complex
    lambda_sq_sum: float       # sum of Lambda(m)^2 over the m-block
    max_m_range_len: int       # longest nonempty rearranged m-range
    empty_pair_count: int      # (n1, n2) pairs whose m-range vanished
    rows: np.ndarray           # row(m) of the direct route, M/2 < m <= M

    @property
    def identity_residual(self) -> float:
        s = self.t4 + self.t5
        scale = max(abs(self.t3), abs(s), 1e-30)
        return abs(self.t3 - s) / scale

    def cauchy_ok(self, t2_value: float) -> bool:
        """Cauchy-Schwarz |T2|^2 <= (sum Lambda(m)^2) T3, with 1e-9 slack for rounding."""
        return t2_value ** 2 <= self.lambda_sq_sum * self.t3 * (1 + 1e-9) + 1e-9


def _pair_bands(ctx: SumContext, hcs, M: int):
    """The non-empty pairs (n1, n2) of the block M, charged one cell per (n1, n2, h1, h2).

    outer holds the n of max{X^{1/3}, (X-Y)/M} < n <= 2X/M with b(n) != 0, and
    the n2 of outer[i] are outer[start[i]:start[i] + widths[i]].
    The m-range of a pair is max{M/2, (X-Y)/min} < m <= min{M, X/max}.
    With n2 >= n1 its floor lo1 = max{M/2, (X-Y)/n1} is fixed and it is
    non-empty iff n2 (lo1 + 1) <= X (lo1 < M, as n1 > (X-Y)/M); with
    n2 <= n1 its ceiling hi1 = min{M, X/n1} is fixed and it is non-empty
    iff M/2 < hi1 and X - Y < hi1 n2.  So the n2 of one n1 form the band
    (X-Y)/hi1 < n2 <= X/(lo1 + 1), which is empty when (n1, n1) is.
    """
    X, Y = ctx.X, ctx.Y
    outer_lo = max(ctx.n_cut_type_ii(), (X - Y) // M) + 1
    outer = np.flatnonzero(ctx.coeffs.b[outer_lo:2 * X // M + 1]) + outer_lo
    lo1 = np.maximum(M // 2, (X - Y) // outer)
    hi1 = np.minimum(M, X // outer)
    top = X // (lo1 + 1)
    bottom = np.where(M // 2 < hi1, (X - Y) // np.maximum(hi1, 1) + 1, X + 1)
    start = np.searchsorted(outer, bottom, side="left")
    widths = np.maximum(np.searchsorted(outer, top, side="right") - start, 0)
    charge("pairs", int(widths.sum()) * len(hcs[0]) ** 2, ctx.budget)
    return outer, start, widths


def t3_t4_t5_split(H: float, M: int, ctx: SumContext) -> TypeIISplit:
    """Open |.|^2 over the m-block and re-sum by (n1, n2) order.

    T3 = sum_m |sum_n b(n) sum_h c(h) e(hmn alpha)|^2 is evaluated
    directly, and its rows are kept, so that T2 of the same block is read
    off them; T4 (n1 <= n2) and T5 (n1 > n2) re-sum the expansion with the
    closed-form m-sum over max{M/2,(X-Y)/min(n1,n2)} < m <= min{M,X/max(n1,n2)}.
    Only the pairs of the bands of _pair_bands are built, CHUNK at a time,
    and their phases {(h1 n1 - h2 n2) alpha} come from one table of exact
    residues per block.  Both routes are charged before either runs.
    T3 = T4 + T5 exactly; floating point leaves ~1e-12 relative residue.
    """
    X, Y = ctx.X, ctx.Y
    hcs, ms = _h_weights(ctx.kernel, H), _m_block(ctx, M)
    b = ctx.coeffs.b
    ranges = _type_ii_n_range(ctx, hcs, ms)
    outer, start, widths = _pair_bands(ctx, hcs, M)

    # direct route
    rows = _type_ii_rows(ctx, hcs, ranges)
    t3 = math.fsum(abs(row) ** 2 for row in rows.tolist())
    lam_sq = math.fsum((ctx.tables.lam[ms] ** 2).tolist())

    # rearranged route: the non-empty (n1, n2) pairs, closed-form m-sums
    t4 = t5 = 0j
    max_len = 0
    if outer.size:
        l_top = int(hcs[0][-1]) * int(outer[-1]) - int(hcs[0][0]) * int(outer[0])
        table = phase_table(ctx.oracle.fracs(np.arange(-l_top, l_top + 1)))  # l at l + l_top
    for r0, r1, j0, j1 in _tiles(widths.tolist()):
        j = np.arange(j0, j1)
        live = j < widths[r0:r1, None]
        i1 = np.broadcast_to(np.arange(r0, r1)[:, None], live.shape)[live]
        n1 = outer[i1]
        n2 = outer[(start[r0:r1, None] + j)[live]]
        lo = np.maximum(M // 2, (X - Y) // np.minimum(n1, n2))
        hi = np.minimum(M, X // np.maximum(n1, n2))
        max_len = max(max_len, int((hi - lo).max()))
        cell = sum(c1 * c2 * indexed_exp_sums(lo, hi, table, h1 * n1 - h2 * n2 + l_top)
                   for h1, c1 in zip(*hcs) for h2, c2 in zip(*hcs))
        contribution = b[n1] * b[n2] * cell
        lower = n1 <= n2
        t4 += complex(contribution[lower].sum())
        t5 += complex(contribution[~lower].sum())
    return TypeIISplit(
        t3=t3, t4=t4, t5=t5,
        lambda_sq_sum=lam_sq,
        max_m_range_len=max_len,
        empty_pair_count=outer.size ** 2 - int(widths.sum()),
        rows=rows,
    )


# ---------------------------------------------------------------------------
# quadruple counts
# ---------------------------------------------------------------------------

def gamma_enumerable(H: int, M: int, X: int) -> bool:
    """The enumeration budget of gamma_counts: X/M <= 512 and H <= 16."""
    return X <= 512 * M and H <= 16


def gamma_counts(labels, H: int, M: int, X: int, Y: int) -> list:
    """[(gamma0, gamma1)] per label l: quadruples with n1 h1 - n2 h2 = l, split by degeneracy.

    Box: X/(2M) < n1 <= n2 <= 2X/M, n2 - n1 <= 2Y/M, H/2 < h1, h2 <= H.
    gamma0 counts the part with l + (n2 - n1) h2 = 0 (equivalently h1 = h2),
    gamma1 the rest.  On the diagonal k = n2 - n1 the equation reads
    n1 (h1 - h2) = l + k h2: with h1 = h2 it needs l + k h2 = 0 and then
    holds for every n1 of the diagonal, and with h1 != h2 only
    n1 = (l + k h2)/(h1 - h2) can solve it.  Every (k, h1, h2) and every
    label is tested at once, in exact integers.
    """
    labels = [int(l) for l in labels]
    if any(abs(l) * M > 2 * X * H for l in labels):
        raise ValueError("l outside [-2XH/M, 2XH/M]")
    if not gamma_enumerable(H, M, X):
        raise BudgetExceeded("enumeration budget: need X/M <= 512 and H <= 16")
    n_lo = X // (2 * M) + 1
    n_hi = 2 * X // M
    h = np.arange(H // 2 + 1, H + 1)
    k, h1, h2 = (a.ravel() for a in np.meshgrid(
        np.arange(min(2 * Y // M, n_hi - n_lo) + 1), h, h, indexing="ij"))
    d = h1 - h2
    degenerate = d == 0
    diagonal = n_hi - n_lo + 1 - k                 # n1 on the diagonal k
    divisor = np.where(degenerate, 1, d)
    counts = []
    step = max(1, CHUNK // max(1, k.size))
    for c0 in range(0, len(labels), step):
        rhs = np.array(labels[c0:c0 + step], dtype=np.int64)[:, None] + k * h2    # n1 (h1 - h2)
        g0 = np.where(degenerate & (rhs == 0), diagonal, 0).sum(axis=1)
        n1 = rhs // divisor
        g1 = (~degenerate & (n1 * divisor == rhs) & (n1 >= n_lo) & (n1 + k <= n_hi)).sum(axis=1)
        counts.extend(zip(g0.tolist(), g1.tolist()))
    return counts


# ---------------------------------------------------------------------------
# bound chains
# ---------------------------------------------------------------------------

def t2_bound_chain(H: float, M: int, X: int, Y: int, delta: float, eps: float,
                   q: int, q_in_window: bool) -> dict:
    """All closed-form terms and condition flags of the type II chain.

    Terms carry coefficient 1 with the X^{4 eps} factor explicit; the
    branch for M > sqrt(X) and its reversed-roles twin for M <= sqrt(X)
    are both reported, with `selected` naming the one in force.  The
    final-condition block compares the max of its eight terms against
    delta^2 Y^2 X^{-6 eps} (decay exponent set to zero; implied_eta
    reports how much slack remains).  qc_window is q_in_window, select_q's verdict on q.
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
        "qc_window": q_in_window,
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
    implied_eta = math.log(final_rhs / final_max) / math.log(Xf) if final_rhs > 0 else None

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


# ---------------------------------------------------------------------------
# the bound-suite plan
# ---------------------------------------------------------------------------

GAMMA_SAMPLE_OFFSETS = (0, -1, 1, -2, 3)


class Task(NamedTuple):
    """A unit of the bound suite: ``charge()`` charges the cells its kernels build, counted
    by their own range functions, and ``run()`` returns its fragment of the report."""

    slot: str    # "type_i" (a fragment holding s1 and t1_blocks), "t2_blocks", "t1" or "t2"
    charge: Callable[[], object]
    run: Callable[[], dict]


def suite_plan(ctx: SumContext) -> list:
    """The suite's tasks in report order: the type I task (s1, then T1(H) per dyadic H), then
    the blocks (H, M), M over X^{1/3} <= M <= X^{2/3} in the outer loop.  The one place the
    grid is spelled out."""
    hs = dyadic_h_blocks(ctx.L)
    return ([_type_i_task(ctx, hs)]
            + [_block_task(ctx, H, M) for M in dyadic_m_blocks(ctx.X) for H in hs])


def _type_i_task(ctx: SumContext, Hs) -> Task:
    """s1 and T1(H) for H in Hs from one walk of the type I rows: the blocks H cover
    0 < h <= L, so every harmonic T1 reads is one s1 forms."""
    def run() -> dict:
        hs = range(1, ctx.L + 1)
        *singles, s1 = _type_i_walk(ctx, hs, ctx.kernel.coeffs)
        per_h = dict(zip(hs, singles))
        return {"s1": s1_type_i(ctx, s1).as_dict(),
                "t1_blocks": [t1_sum(H, ctx, per_h).as_dict() for H in Hs]}

    return Task("type_i", lambda: _type_i_rows(ctx, ctx.L), run)


def t1_task(ctx: SumContext, H: float) -> Task:
    """T1(H) alone, with its comparator chain: one walk over the block's harmonics."""
    hs = _h_weights(ctx.kernel, H)[0]
    return Task("t1", lambda: _type_i_rows(ctx, len(hs)), lambda: t1_sum(H, ctx).as_dict())


def t2_task(ctx: SumContext, H: float, M: int) -> Task:
    """T2(H, M) alone, with its bound chain: the rows of the prime powers m, and no pair band.

    Its T2 equals the suite block's to rounding, not bit for bit: _type_ii_rows sums each row
    over a tile padded to the widest row packed with it, and the block packs every m's rows.
    """
    hcs, ms = _h_weights(ctx.kernel, H), _m_block(ctx, M)
    return Task("t2", lambda: _type_ii_n_range(ctx, hcs, ms[ctx.tables.lam[ms] != 0]),
                lambda: {**t2_sum(H, M, ctx).as_dict(),
                         "chain": t2_bound_chain(H, M, ctx.X, ctx.Y, ctx.delta, ctx.eps, ctx.q,
                                                 ctx.q_in_window)})


def _block_task(ctx: SumContext, H: float, M: int) -> Task:
    """The block (H, M): the split, T2 read off the split's rows, the chain and gamma samples."""
    hcs = _h_weights(ctx.kernel, H)

    def run() -> dict:
        split = t3_t4_t5_split(H, M, ctx)
        t2 = t2_sum(H, M, ctx, split.rows)
        chain = t2_bound_chain(H, M, ctx.X, ctx.Y, ctx.delta, ctx.eps, ctx.q, ctx.q_in_window)
        block = {"H": H, "M": M, "t2": t2.as_dict(), "t3": split.t3, "t4_re": split.t4.real,
                 "t5_re": split.t5.real, "identity_residual": split.identity_residual,
                 "lambda_sq_sum": split.lambda_sq_sum, "cauchy_ok": split.cauchy_ok(t2.value),
                 "max_m_range_len": split.max_m_range_len, "chain": chain,
                 "measured_over_bound": t2.value / chain["t2_bound"] if chain["t2_bound"] else None}
        if gamma_enumerable(int(H), M, ctx.X):
            offs = [off for off in GAMMA_SAMPLE_OFFSETS if abs(off) * M <= 2 * ctx.X * int(H)]
            counts = gamma_counts(offs, int(H), M, ctx.X, ctx.Y)
            block["gamma_samples"] = {str(off): list(c) for off, c in zip(offs, counts)}
        return block

    return Task("t2_blocks", lambda: (_type_ii_n_range(ctx, hcs, _m_block(ctx, M)),
                                      _pair_bands(ctx, hcs, M)), run)
