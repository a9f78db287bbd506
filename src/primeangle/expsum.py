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

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .alpha import AngleOracle
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

# Elements per array pass of min_sum, of the type I, type II and pair
# kernels in vaughan and of the criterion 4 batches: keeps their
# temporaries within a few hundred kB.
CHUNK = 2 ** 12


def linear_exp_sum(w: float, z: float, x: float) -> complex:
    """sum of e(n x) over integers n in (w, z]: linear_exp_sums on one element."""
    if z < w:
        raise ValueError("need z >= w")
    return complex(linear_exp_sums([math.floor(w)], [math.floor(z)], [x])[0])


def linear_exp_sums(lo, hi, x) -> np.ndarray:
    """sum of e(n x) over lo < n <= hi, elementwise, in closed form.

    lo and hi are integer arrays with hi >= lo, x a float array, all of
    one length.  With x = mant * 2^-s, (n x) mod 2 and (n x/2) mod 1 are
    (n * mant) mod 2^(s+1), scaled down.  The modulus is a power of two,
    so the low bits of a product are exact in any width that holds
    them: elements with s + 1 <= 64 (|x| >= 2^-11) take wrapped uint64
    products (a negative n or mant taken as its two's complement), the
    smaller |x| Python integers in object arrays.
    """
    lo, hi = np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64)
    x = np.asarray(x, dtype=np.float64)
    count = hi - lo
    if (count < 0).any():
        raise ValueError("need hi >= lo")
    out = count.astype(np.complex128)     # the value at integral x, and 0 when empty
    mant, exp2 = np.frexp(x)
    live = (count > 0) & (np.floor(x) != x)
    for wide in (False, True):
        at = np.flatnonzero(live & ((exp2 < -10) == wide))
        if at.size:
            out[at] = _closed_form(lo[at], hi[at], mant[at], exp2[at], object if wide else np.uint64)
    return out


def _closed_form(lo, hi, mant, exp2, width) -> np.ndarray:
    """e((a + b) x/2) sin(pi c x)/sin(pi x) for non-integral x, residues in ``width``.

    The sine's remainder (c x) mod 2 is folded into t in [0, 1/2] in
    integers (sin(pi(t + 1)) = -sin(pi t), sin(pi(1 - t)) = sin(pi t)),
    so the one rounding is of the folded value: the sine keeps full
    relative accuracy next to each of its zeros.  Below t = 2^-1000,
    sin(pi t) = pi t to double precision, and it is kept as pi t 2^1000
    with the exponent apart, so that no subnormal enters the quotient.
    The centring phase ((a + b) x/2) mod 1 is taken in [0, 1), or as the
    negative remainder where it would round onto 1.
    """
    s = (53 - exp2).astype(width)
    m = np.ldexp(mant, 53).astype(np.int64).astype(width)
    half = np.ones_like(s) << s                 # 2^s, for n x = 1 mod 2
    mask = (half - 1) + half                    # 2^(s+1) - 1

    def scaled(v, h=half):                      # the float of v / h
        return np.asarray(v / h, dtype=np.float64)

    def sin_pi(n):                              # sin(pi n x) as f / lift
        v = (n * m) & mask
        upper = v >= half
        v = np.where(upper, v - half, v)
        v = np.minimum(v, half - v)
        f, lift = np.sin(np.pi * scaled(v)), 1.0
        if width is object:
            tiny = v < half >> 1000
            f[tiny] = np.pi * scaled(v[tiny] << 1000, half[tiny])
            lift = np.where(tiny, 2.0 ** 1000, 1.0)
        return np.where(upper, -f, f), lift

    (num, lift_num), (den, lift_den) = sin_pi((hi - lo).astype(width)), sin_pi(1)
    ratio = num / den * (lift_den / lift_num)
    c = ((lo.astype(width) + hi.astype(width) + 1) * m) & mask
    centre = scaled(c) / 2
    up = np.flatnonzero(centre == 1.0)
    centre[up] = -scaled((mask[up] - c[up]) + 1, half[up]) / 2
    return np.exp(2j * np.pi * centre) * ratio


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
        if not math.isfinite(self.N):
            raise ValueError(f"the cap N must be finite, got {self.N!r}")
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

    The cap applies where ||alpha m|| < 1/N.  AngleOracle.verdicts decides
    that against the exact threshold 1/N, CHUNK values of m at a time: a
    term whose certified interval lies below 1/N is capped, one above it
    is not.  A term whose interval straddles the switch is resolved by
    its midpoint v = t/Q, t*Nn < Q*D with N = Nn/D exactly, and flagged;
    at the default oracle precision no flags occur.  The terms are summed
    exactly.
    """
    oracle, N = instance.oracle, instance.N
    cap = Fraction(N)
    total = ExactSum()
    flags = 0
    for start in range(1, instance.M + 1, CHUNK):
        ms = np.arange(start, min(start + CHUNK, instance.M + 1))
        t, v = oracle.dists(ms)
        below, boundary = oracle.verdicts(t, v, 1 / cap)
        straddle = np.flatnonzero(boundary)
        below[straddle] = [r * cap.numerator < oracle.anchor.q * cap.denominator
                           for r in t[straddle].tolist()]
        flags += straddle.size
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
            "alpha": inst.oracle.alpha.canonical(),
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
