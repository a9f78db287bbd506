"""Linear exponential sums, min-sums, and the standard rational-approximation bound.

The geometric sum over an integer range has the closed Dirichlet-kernel form

    sum_{a <= n <= b} e(n x) = e(x (a + b)/2) * sin(pi c x) / sin(pi x),

with c = b - a + 1 terms, which also yields the sharp bound
|sum| <= min(c, 1/(2 ||x||)) because sin(pi t) >= 2 t on [0, 1/2].

The min-sums sum_{m <= M} min(N, 1/||alpha m||) are evaluated exactly through
the certified angle oracle and compared against the standard estimate

    q log q            if M <= q/2,
    M N / q + M log q  if M >  q/2,

implemented with coefficient 1 and a max(1, log q) guard at q <= 2; the
measured sum/bound ratio is an artifact constant tracked by the acceptance
suite, not a theoretical value.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alpha import FILTER_MARGIN, AngleOracle
from .sieve import ExactSum

__all__ = [
    "linear_exp_sum",
    "linear_exp_sums",
    "MinSumInstance",
    "MinSumResult",
    "min_sum",
    "standard_estimate_bound",
    "empirical_constant",
]

# Elements per array pass of min_sum and of the type I, type II and pair
# kernels in vaughan: keeps their temporaries within a few hundred kB.
CHUNK = 2 ** 12


def reduced_phase(n: int, x: float, period: int = 1) -> float:
    """Exact (n * x) mod period for integer n, float x, period in {1, 2}.

    Works on the exact binary mantissa of x, so the only rounding is the
    final conversion back to float (one ulp of the result).  This keeps
    e(n x) evaluations accurate even when n x is thousands of turns.
    """
    if x == 0.0 or n == 0:
        return 0.0
    mant, exp2 = math.frexp(x)
    mant_int = int(mant * (1 << 53))      # exact: x = mant_int * 2^(exp2-53)
    shift = exp2 - 53
    prod = n * mant_int
    if shift >= 0:
        return float((prod << shift) % period)
    denom = 1 << (-shift)
    return (prod % (period * denom)) / denom


def _sin_pi_multiple(n: int, x: float):
    """sin(pi n x) as (f, e), the value f * 2^e, for integer n and non-integral float x.

    (n x) mod 2 is taken on the exact binary mantissa of x and folded into
    t in [0, 1/2] in integers (sin(pi(t + 1)) = -sin(pi t), sin(pi(1 - t))
    = sin(pi t)), so the one rounding is of the folded value.  The result
    keeps full relative accuracy next to every zero of the sine, also for
    x just below an integer, whose remainder mod 2 would round onto it.
    Below t = 2^-1000, sin(pi t) = pi t to double precision, and it is
    returned with its exponent apart, so that no subnormal enters a quotient.
    """
    mant, exp2 = math.frexp(x)
    s = 53 - exp2                          # x = mant_int / 2^s, s >= 1
    v = n * int(mant * (1 << 53)) % (2 << s)
    sign = 1.0
    if v >> s:
        v -= 1 << s
        sign = -1.0
    if 2 * v > 1 << s:
        v = (1 << s) - v
    if v.bit_length() > s - 1000:
        return sign * math.sin(math.pi * (v / (1 << s))), 0
    return sign * math.pi * v, -s


def linear_exp_sum(w: float, z: float, x: float) -> complex:
    """sum of e(n x) over integers n in (w, z], in closed form.

    Dirichlet-kernel form with exactly reduced phase arguments: the sine
    quotient uses (count x) mod 2 and the centering factor ((a+b) x/2)
    mod 1, both computed by integer arithmetic on the mantissa of x.
    This scalar form is the oracle for linear_exp_sums.
    """
    if z < w:
        raise ValueError("need z >= w")
    a = math.floor(w) + 1
    b = math.floor(z)
    count = b - a + 1
    if count <= 0:
        return 0j
    if x == round(x):
        return complex(count, 0.0)
    (num, e_num), (den, e_den) = _sin_pi_multiple(count, x), _sin_pi_multiple(1, x)
    (nm, ne), (dm, de) = math.frexp(num), math.frexp(den)
    ratio = math.ldexp(nm / dm, ne - de + e_num - e_den)
    return cmath.exp(2j * math.pi * reduced_phase(a + b, 0.5 * x, 1)) * ratio


def linear_exp_sums(lo, hi, x) -> np.ndarray:
    """linear_exp_sum(lo, hi, x) elementwise: sum of e(n x) over lo < n <= hi.

    lo and hi are integer arrays with hi >= lo, x a float array, all of
    one length.  The reductions are those of the scalar form, on 64-bit
    words: with x = mant * 2^-s, (n x) mod 2 and (n x/2) mod 1 are
    (n * mant) mod 2^(s+1), scaled down.  The modulus is a power of two,
    so the low bits of the wrapped uint64 product (a negative n or mant
    taken as its two's complement) are exact whenever s + 1 <= 64, that
    is |x| >= 2^-11; the sine's remainder is folded in
    integers as in _sin_pi_multiple, and is 0 or at least 2^-63.  Elements
    with a smaller non-zero |x| go through the scalar form.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    count = hi - lo
    if (count < 0).any():
        raise ValueError("need hi >= lo")
    out = count.astype(np.complex128)     # the value at integral x, and 0 when empty
    mant, exp2 = np.frexp(x)
    live = (count > 0) & (np.floor(x) != x)
    tiny = exp2 < -10
    fast = np.flatnonzero(live & ~tiny)
    s = (53 - exp2[fast]).astype(np.uint64)                    # 1 <= s <= 63
    m = np.ldexp(mant[fast], 53).astype(np.int64).astype(np.uint64)
    mask = np.uint64(2 ** 64 - 1) >> (np.uint64(63) - s)      # 2^(s+1) - 1
    half = np.left_shift(np.uint64(1), s)                      # 2^s, for n x = 1 mod 2
    scale = -s.astype(np.int64)

    def sin_pi(n):
        v = (n * m) & mask
        upper = v >= half
        v = np.where(upper, v - half, v)
        v = np.minimum(v, half - v)
        return np.where(upper, -1.0, 1.0) * np.sin(np.pi * np.ldexp(v.astype(np.float64), scale))

    ab = (lo[fast] + hi[fast] + 1).astype(np.uint64)
    centre = np.ldexp(((ab * m) & mask).astype(np.float64), scale - 1)
    ratio = sin_pi(count[fast].astype(np.uint64)) / sin_pi(np.uint64(1))
    out[fast] = np.exp(2j * np.pi * centre) * ratio
    for i in np.flatnonzero(live & tiny).tolist():
        out[i] = linear_exp_sum(int(lo[i]), int(hi[i]), float(x[i]))
    return out


@dataclass(frozen=True)
class MinSumInstance:
    """One min-sum evaluation: m-range, cap, angle oracle, denominator in force.

    q must come from a convergent of the oracle's alpha, so that the
    rational-approximation hypothesis |alpha - a/q| < 1/q^2 holds.
    """

    M: int
    N: float
    oracle: AngleOracle
    q: int

    def __post_init__(self):
        if self.M < 1 or self.N < 1 or self.q < 1:
            raise ValueError("need M, N, q >= 1")
        if self.M > self.oracle.n_max:
            raise ValueError("oracle does not cover m <= M")


@dataclass(frozen=True)
class MinSumResult:
    value: float
    switch_flags: int  # terms whose certified interval straddled the 1/N cap


def min_sum(instance: MinSumInstance) -> MinSumResult:
    """sum over 1 <= m <= M of min(N, 1/||alpha m||) with certified angles.

    ||alpha m|| is v = t/Q, t = min(r, Q - r) with r = m P mod Q the exact
    residue of the oracle's anchor P/Q, taken CHUNK values of m at a time.
    With N = Nn/D exactly, the cap applies when v < 1/N, that is
    t*Nn < Q*D.  A term whose certified interval [v - e, v + e], e =
    n_max/Q^2, straddles the switch, (t*Q - n_max)*Nn < Q^2*D <=
    (t*Q + n_max)*Nn, is resolved by the midpoint v and flagged; at the
    default oracle precision no flags occur.  A float64 filter settles
    the terms whose v*N lies farther than FILTER_MARGIN + 2eN from 1; the
    rest are decided in integers.  The terms are summed exactly.
    """
    oracle, N = instance.oracle, instance.N
    Q, n_max = oracle.anchor.q, oracle.n_max
    cap = Fraction(N)
    band = FILTER_MARGIN + 2 * oracle.ebound * N
    total = ExactSum()
    flags = 0
    for start in range(1, instance.M + 1, CHUNK):
        t, v = oracle.dists(np.arange(start, min(start + CHUNK, instance.M + 1)))
        scaled = v * N
        below = scaled < 1.0
        for i in np.flatnonzero(np.abs(scaled - 1.0) <= band).tolist():
            r = int(t[i])
            below[i] = r * cap.numerator < Q * cap.denominator
            flags += ((r * Q - n_max) * cap.numerator < Q * Q * cap.denominator
                      <= (r * Q + n_max) * cap.numerator)
        with np.errstate(divide="ignore"):
            total.add(np.where(below, N, 1.0 / v))
    return MinSumResult(value=total.value(), switch_flags=flags)


def standard_estimate_bound(M: int, N: float, q: int):
    """(branch, value) of the standard estimate with coefficient 1.

    branch "small-M" (M <= q/2): q log q;  branch "large-M": M N/q + M log q.
    log q is replaced by max(1, log q) so q in {1, 2} stays nondegenerate.
    """
    if M < 1 or N < 1 or q < 1:
        raise ValueError("need M, N, q >= 1")
    logq = max(1.0, math.log(q))
    if M <= q / 2:
        return "small-M", q * logq
    return "large-M", M * N / q + M * logq


def empirical_constant(instances) -> dict:
    """Measured min_sum/standard-bound ratios over a grid of instances.

    Returns per-instance rows (deterministic input order) plus the grid
    maximum; the maximum is the artifact's empirical stand-in for the
    estimate's hidden constant.
    """
    rows = []
    worst = 0.0
    for inst in instances:
        measured = min_sum(inst)
        branch, bound = standard_estimate_bound(inst.M, inst.N, inst.q)
        ratio = measured.value / bound
        worst = max(worst, ratio)
        rows.append({
            "alpha": inst.oracle.alpha.describe(),
            "M": inst.M,
            "N": inst.N,
            "q": inst.q,
            "min_sum": measured.value,
            "branch": branch,
            "bound": bound,
            "ratio": ratio,
            "switch_flags": measured.switch_flags,
        })
    return {"rows": rows, "max_ratio": worst}
