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
from typing import NamedTuple

import numpy as np

from .alpha import AngleOracle
from .sieve import ExactSum

__all__ = [
    "linear_exp_sum",
    "linear_exp_sums",
    "PhaseTable",
    "phase_table",
    "indexed_exp_sums",
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
# Harmonics vaughan's type I walk forms per tile table: the table holds at
# most HARMONIC_GROUP + 1 tiles of CHUNK complex cells, whatever its L.
HARMONIC_GROUP = 16


def linear_exp_sum(w: float, z: float, x: float) -> complex:
    """sum of e(n x) over integers n in (w, z]: linear_exp_sums on one element."""
    if z < w:
        raise ValueError("need z >= w")
    return complex(linear_exp_sums([math.floor(w)], [math.floor(z)], [x])[0])


def linear_exp_sums(lo, hi, x) -> np.ndarray:
    """sum of e(n x) over lo < n <= hi, elementwise, in closed form.

    lo and hi are integer arrays with hi >= lo, x a float array, all of
    one length: the phase table of x, read at each element's own phase.
    """
    x = np.asarray(x, dtype=np.float64)
    return indexed_exp_sums(lo, hi, phase_table(x), np.arange(x.size).reshape(x.shape))


class _Parts(NamedTuple):
    """The parts of the closed form that depend on x alone, in one width.

    x = m 2^-s, and sin(pi x) is den / lift (lift is 1.0 in uint64, an
    array in object width).
    """

    m: np.ndarray
    s: np.ndarray
    den: np.ndarray
    lift: object

    def take(self, at) -> "_Parts":
        return _Parts(*(v[at] if isinstance(v, np.ndarray) else v for v in self))


class PhaseTable(NamedTuple):
    """The x-only parts of the closed form for an array of phases x.

    route[i] is 0 for integral x (the sum is its count), 1 for |x| >= 2^-11
    and 2 for the smaller |x|.  Route 1 reads ``narrow``, laid out like x
    (its s in uint8); route 2 reads ``wide``, the parts of the phases
    wide_at in object width.
    """

    route: np.ndarray
    narrow: _Parts
    wide_at: np.ndarray
    wide: _Parts


def phase_table(x) -> PhaseTable:
    """The PhaseTable of a float array x, built CHUNK phases at a time.

    With x = mant * 2^-s, (n x) mod 2 and (n x/2) mod 1 are
    (n * mant) mod 2^(s+1), scaled down.  The modulus is a power of two,
    so the low bits of a product are exact in any width that holds
    them: phases with s + 1 <= 64 (|x| >= 2^-11) take wrapped uint64
    products (a negative n or mant taken as its two's complement), the
    smaller |x| Python integers in object arrays.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    route = np.zeros(x.size, dtype=np.int8)
    narrow = _Parts(np.zeros(x.size, np.uint64), np.zeros(x.size, np.uint8), np.zeros(x.size), 1.0)
    for a in range(0, x.size, CHUNK):
        chunk = x[a:a + CHUNK]
        mant, exp2 = np.frexp(chunk)
        route[a:a + CHUNK] = np.where(np.floor(chunk) == chunk, 0, np.where(exp2 < -10, 2, 1))
        at = np.flatnonzero(route[a:a + CHUNK] == 1)
        for column, value in zip(narrow, _x_parts(mant[at], exp2[at], np.uint64)[:3]):
            column[a + at] = value
    wide_at = np.flatnonzero(route == 2)
    return PhaseTable(route, narrow, wide_at, _x_parts(*np.frexp(x[wide_at]), object))


def indexed_exp_sums(lo, hi, table: PhaseTable, idx) -> np.ndarray:
    """sum of e(n x) over lo < n <= hi elementwise, x the phase idx of the table, in closed form.

    lo, hi and idx are integer arrays of one length with hi >= lo.
    """
    lo, hi, idx = (np.asarray(v, dtype=np.int64) for v in (lo, hi, idx))
    count = hi - lo
    if (count < 0).any():
        raise ValueError("need hi >= lo")
    out = count.astype(np.complex128)     # the value at integral x, and 0 when empty
    route = np.where(count > 0, table.route[idx], 0)
    at = np.flatnonzero(route == 1)
    if at.size:
        out[at] = _closed_form(lo[at], hi[at], table.narrow.take(idx[at]), np.uint64)
    at = np.flatnonzero(route == 2)
    if at.size:
        wide = table.wide.take(np.searchsorted(table.wide_at, idx[at]))
        out[at] = _closed_form(lo[at], hi[at], wide, object)
    return out


def _scaled(v, half) -> np.ndarray:
    """The float of v / half."""
    return np.asarray(v / half, dtype=np.float64)


def _powers(s):
    """(2^s, 2^(s+1) - 1): the half turn n x = 1 mod 2 and the mask of residues mod 2^(s+1)."""
    half = np.ones_like(s) << s
    return half, (half - 1) + half


def _sin_pi(n, m, half, mask, width):
    """sin(pi n x) as (f, lift), sin = f / lift, for x = m / half.

    The remainder (n x) mod 2 is folded into t in [0, 1/2] in integers
    (sin(pi(t + 1)) = -sin(pi t), sin(pi(1 - t)) = sin(pi t)), so the one
    rounding is of the folded value: the sine keeps full relative
    accuracy next to each of its zeros.  Below t = 2^-1000,
    sin(pi t) = pi t to double precision, and it is kept as pi t 2^1000
    with the exponent apart, so that no subnormal enters the quotient.
    """
    v = (n * m) & mask
    upper = v >= half
    v = np.where(upper, v - half, v)
    v = np.minimum(v, half - v)
    f, lift = np.sin(np.pi * _scaled(v, half)), 1.0
    if width is object:
        tiny = v < half >> 1000
        f[tiny] = np.pi * _scaled(v[tiny] << 1000, half[tiny])
        lift = np.where(tiny, 2.0 ** 1000, 1.0)
    return np.where(upper, -f, f), lift


def _x_parts(mant, exp2, width) -> _Parts:
    """The _Parts of x = mant 2^exp2 in ``width``."""
    m = np.ldexp(mant, 53).astype(np.int64).astype(width)
    s = (53 - exp2).astype(width)
    return _Parts(m, s, *_sin_pi(1, m, *_powers(s), width))


def _closed_form(lo, hi, x: _Parts, width) -> np.ndarray:
    """e((a + b) x/2) sin(pi c x)/sin(pi x) for non-integral x, residues in ``width``.

    The centring phase ((a + b) x/2) mod 1 is taken in [0, 1), or as the
    negative remainder where it would round onto 1.
    """
    half, mask = _powers(x.s.astype(width))
    num, lift = _sin_pi((hi - lo).astype(width), x.m, half, mask, width)
    ratio = num / x.den * (x.lift / lift)
    c = ((lo.astype(width) + hi.astype(width) + 1) * x.m) & mask
    centre = _scaled(c, half) / 2
    up = np.flatnonzero(centre == 1.0)
    centre[up] = -_scaled((mask[up] - c[up]) + 1, half[up]) / 2
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
            raise ValueError(f"need M, N, q >= 1, got M={self.M}, N={self.N} and q={self.q}")
        if self.M > self.oracle.n_max:
            raise ValueError("oracle does not cover m <= M")


@dataclass(frozen=True)
class MinSumResult:
    value: float
    switch_flags: int  # terms the float filter left at the 1/N cap, decided in alpha


def min_sum(instance: MinSumInstance) -> MinSumResult:
    """sum over 1 <= m <= M of min(N, 1/||alpha m||) with certified angles.

    The cap applies where ||alpha m|| < 1/N.  AngleOracle.verdicts decides
    that against the exact threshold 1/N, CHUNK values of m at a time: its
    float filter settles the terms far from the switch, and the rest are
    decided in alpha and counted in switch_flags (none at default oracle
    precision).  A capped term reads N, any other min(N, 1/v) with v the
    certified ||alpha m||.  The terms are summed exactly.
    """
    oracle, N = instance.oracle, instance.N
    threshold = 1 / Fraction(N)
    total = ExactSum()
    flags = 0
    for start in range(1, instance.M + 1, CHUNK):
        ms = np.arange(start, min(start + CHUNK, instance.M + 1))
        v = oracle.dists(ms)
        below, exact = oracle.verdicts(ms, v, threshold)
        flags += int(np.count_nonzero(exact))
        with np.errstate(divide="ignore"):
            total.add(np.where(below, N, np.minimum(N, 1.0 / v)))
    return MinSumResult(value=total.value(), switch_flags=flags)


def standard_estimate_bound(M: int, N: float, q: int):
    """(branch, value) of the standard estimate with coefficient 1.

    branch "small-M" (M <= q/2): q log q;  branch "large-M": M N/q + M log q.
    log q is replaced by max(1, log q) so q in {1, 2} stays nondegenerate.
    """
    if M < 1 or N < 1 or q < 1:
        raise ValueError(f"need M, N, q >= 1, got M={M}, N={N} and q={q}")
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
