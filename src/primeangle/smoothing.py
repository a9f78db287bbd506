"""Periodized Gaussian weight and its truncated Fourier expansion.

The weight is the 1-periodic sum

    F(x) = sum_{n in Z} exp(-pi (x - n)^2 / delta^2),

a smooth stand-in for the indicator of ||x|| < delta: it is >= e^{-pi}
on ||x|| <= delta, uniformly bounded by F(0) <= 1 + 3 exp(-pi/delta^2),
and decays like exp(-pi T^2) once ||x|| >= T delta.  The direct form
sums the shifts n = round(x) + s at the exact r = x - round(x), so it
holds for every float x, and leaves out the shifts whose terms all
round to +0.0, which changes no sum.  Poisson summation
gives the dual form

    F(x) = delta * sum_{l in Z} exp(-pi delta^2 l^2) e(l x),

whose truncation at |l| <= L leaves a tail dominated by a geometric
series; truncation_bound returns that explicit certified bound instead
of asymptotic bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SmoothingKernel",
    "build_kernel",
    "check_direct_delta",
    "f_direct",
    "f_direct_array",
    "f_fourier",
    "f_fourier_array",
    "truncation_bound",
    "truncation_bound_log10",
    "DIRECT_TERMS",
]

LOG10_FLOAT_MIN = math.log10(5e-324)  # below this the closed form underflows to 0
# The smallest delta whose square is a normal float, so that the direct
# form's pi / delta^2 is finite: sqrt of the least normal float, 2^-511.
MIN_DIRECT_DELTA = 2.0 ** -511
# exp(-t) rounds to +0.0 for every t > 745.14; the margin covers a few
# ulps of the exponent's rounding.
EXP_ZERO = 746.0
# f_direct_array leaves out shift +-(S+1) once e^(-2 S pi / delta^2) < 2^-55
# (see _direct_shifts): the log of that bound, 55 ln 2 = 38.12, raised by a
# relative 2^-30 that covers the rounding of pi / delta^2.
ABSORBED_LOG_RATIO = 55.0 * math.log(2.0) * (1.0 + 2.0 ** -30)
# Elements per temporary of f_direct_array and f_fourier_array: 64 kB of
# float64.
ARRAY_BLOCK = 2 ** 13
# Integer-shift radius of the direct form.  For delta <= 1/2 a dropped shift
# |s| >= 4 has |r - s| >= 7/2 >= 7 delta, so its term is at most e^(-49 pi),
# and the dropped tail stays below 1e-66, far under the 1e-30 it must meet.
DIRECT_TERMS = 3


def check_direct_delta(delta: float) -> None:
    """Raise ValueError unless the direct form can be evaluated at ``delta``."""
    if not (MIN_DIRECT_DELTA <= delta <= 0.5):
        raise ValueError(f"delta must lie in [{MIN_DIRECT_DELTA!r}, 1/2] for the "
                         f"direct form of the weight, got {delta!r}")


def _direct_shifts(delta: float, ordered: bool = False) -> list:
    """The shifts s, |s| <= DIRECT_TERMS, that the direct form sums.

    Both direct forms evaluate exp(-pi (r - s)^2 / delta^2) at the exact
    r = x - round(x), |r| <= 1/2, so shift s has |r - s| >= |s| - 1/2.
    Where pi / delta^2 * (|s| - 1/2)^2 exceeds EXP_ZERO every such term
    is exactly +0.0, which adds nothing to a sum, so the shift is left
    out: 3 of 7 shifts stay at delta = 0.05, 5 at 0.1 and all 7 from
    about 0.16 on.

    The increasing-order sum of f_direct_array (``ordered``) also stops
    at the least S >= 1 with e^(-2 S pi / delta^2) < 2^-55, that is
    2 S pi / delta^2 > 55 ln 2, which changes none of its results:

    - the term of shift +-(S+1) is e^(-pi (2S + 1 -+ 2r) / delta^2)
      <= e^(-2 S pi / delta^2) < 2^-55 times that of +-S, and each shift
      farther out is smaller again by more, so all the terms beyond +-S
      together stay below 2^-54 of the term of +-S;
    - a positive addend below 2^-54 of a float is below half its ulp, so
      adding it rounds back to that float.  The terms below -S form a
      partial sum that joins the term of -S, and each term above +S joins
      a partial sum of at least the term of +S, so every such addition
      returns the float it joined and the sum is bit for bit that over
      all the shifts.  The factor 2 between 2^-55 and 2^-54 covers the
      rounding of the terms themselves.

    So |s| <= 2 from delta ~ 0.406 on and |s| <= 1 below it.  The rule is
    evaluated with ABSORBED_LOG_RATIO, whose margin errs towards keeping
    a shift.  f_direct keeps the shifts beyond S: its math.fsum is
    correctly rounded, so there a dropped term could move a rounding tie.
    """
    inv = math.pi / (delta * delta)
    return [s for s in range(-DIRECT_TERMS, DIRECT_TERMS + 1)
            if inv * max(abs(s) - 0.5, 0.0) ** 2 <= EXP_ZERO
            and not (ordered and 2.0 * (abs(s) - 1) * inv > ABSORBED_LOG_RATIO)]


def f_direct(x: float, delta: float) -> float:
    """Direct evaluation of the periodized Gaussian at x.

    Sums the shifts n = round(x) + s, s in _direct_shifts(delta), at
    r - s for the exact r = x - round(x), so that x beyond 2^53, where
    x - n would absorb s, gives F(0); the dropped tail is below 1e-30 for
    every delta <= 1/2.  1-periodic and even by construction.
    """
    check_direct_delta(delta)
    r = x - round(x)
    inv = math.pi / (delta * delta)
    return math.fsum(math.exp(-inv * (r - s) * (r - s)) for s in _direct_shifts(delta))


def f_direct_array(xs: np.ndarray, delta: float) -> np.ndarray:
    """f_direct over a one-dimensional float64 array, summing the shifts in one fixed order.

    Each entry adds the Gaussian terms of f_direct in increasing shift
    order instead of math.fsum, so it agrees with f_direct to a few ulps.
    It leaves out the shifts +-(S+1) and beyond once their terms are below
    2^-55 of those of +-S (_direct_shifts with ``ordered``, which gives
    the proof): they stay below half an ulp of the partial sums they
    would join, so every result is bit for bit the ordered sum over all
    the shifts, and at delta = 0.45 five shifts are summed instead of
    seven.  The terms are formed in place in three buffers of
    ARRAY_BLOCK elements, one block of xs at a time, so only the result
    is as large as xs.
    """
    check_direct_delta(delta)
    xs = np.asarray(xs, dtype=np.float64)
    shifts = _direct_shifts(delta, ordered=True)
    inv = math.pi / (delta * delta)
    total = np.zeros_like(xs)
    width = min(xs.size, ARRAY_BLOCK)
    r_buf, d_buf, term_buf = np.empty(width), np.empty(width), np.empty(width)
    for start in range(0, xs.size, ARRAY_BLOCK):
        x, out = xs[start: start + ARRAY_BLOCK], total[start: start + ARRAY_BLOCK]
        r, d, term = r_buf[:x.size], d_buf[:x.size], term_buf[:x.size]
        np.rint(x, out=r)
        np.subtract(x, r, out=r)
        for shift in shifts:
            np.subtract(r, shift, out=d)
            np.multiply(d, -inv, out=term)
            term *= d
            np.exp(term, out=term)
            out += term
    return total


def truncation_bound(delta: float, L: int) -> float:
    """Certified sup-norm bound on the Fourier tail beyond |l| <= L.

    Geometric-series domination of the Gaussian tail:
        2 delta exp(-pi delta^2 L^2) / (1 - exp(-pi delta^2 (2L + 1))).
    Returns 0.0 when the value underflows float range (see the _log10
    companion for the order of magnitude).
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    a = math.pi * delta * delta
    ratio = math.exp(-a * (2 * L + 1))
    return 2 * delta * math.exp(-a * L * L) / (1.0 - ratio)


def truncation_bound_log10(delta: float, L: int) -> float:
    """log10 of the truncation bound; never underflows."""
    if L < 1:
        raise ValueError("L must be >= 1")
    a = math.pi * delta * delta
    log_num = math.log(2 * delta) - a * L * L
    log_den = math.log1p(-math.exp(-a * (2 * L + 1))) if a * (2 * L + 1) < 700 else 0.0
    return (log_num - log_den) / math.log(10)


@dataclass(frozen=True)
class SmoothingKernel:
    """Precomputed Fourier data: coefficients c(l) = exp(-pi delta^2 l^2), 0 < l <= L."""

    delta: float
    L: int
    coeffs: np.ndarray = field(repr=False)          # c(1..L)
    tail_bound: float
    tail_underflow: bool
    tail_log10: float


def build_kernel(delta: float, L: int) -> SmoothingKernel:
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if L < 1:
        raise ValueError("L must be >= 1")
    ells = np.arange(1, L + 1, dtype=np.float64)
    coeffs = np.exp(-math.pi * delta * delta * ells * ells)
    log10_tail = truncation_bound_log10(delta, L)
    underflow = log10_tail < LOG10_FLOAT_MIN
    return SmoothingKernel(
        delta=delta,
        L=L,
        coeffs=coeffs,
        tail_bound=0.0 if underflow else truncation_bound(delta, L),
        tail_underflow=underflow,
        tail_log10=log10_tail,
    )


def f_fourier(x: float, kernel: SmoothingKernel) -> float:
    """Truncated Fourier form: delta + delta * sum_{0<|l|<=L} c(|l|) e(l x).

    Real by conjugate symmetry, so the sum is 2 sum_{l<=L} c(l) cos(2 pi l x);
    differs from the direct form by at most kernel.tail_bound everywhere.
    """
    ang = (2.0 * np.pi * x) * np.arange(1, kernel.L + 1)
    return kernel.delta * (1.0 + 2.0 * float(np.dot(kernel.coeffs, np.cos(ang))))


def f_fourier_array(xs: np.ndarray, kernel: SmoothingKernel) -> np.ndarray:
    """f_fourier over a one-dimensional float64 array, by baby and giant steps.

    With t = 2 pi x, B = isqrt(L) and l = j*B + k, 0 <= k < B,

        cos(t l) = cos(t j B) cos(t k) - sin(t j B) sin(t k),

    so a row evaluates only the B baby and R = ceil((L + 1) / B) giant
    angles, and contracts the baby cosines and sines against the
    zero-padded R x B matrix of c(j*B + k).  Every sum runs along one
    row with einsum's own loops (never BLAS, whose row results can
    depend on the block shape), so a value does not depend on how many
    rows share a block.  A block holds ARRAY_BLOCK // R rows (R >= B),
    so each temporary holds at most max(R, ARRAY_BLOCK) elements.  The
    product formula and the reordered sums make it agree with
    f_fourier's dot product to a few ulps.
    """
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty_like(xs)
    step = math.isqrt(kernel.L)
    giants = -(-(kernel.L + 1) // step)
    padded = np.zeros(giants * step)
    padded[1:kernel.L + 1] = kernel.coeffs
    table = padded.reshape(giants, step)                   # table[j, k] = c(j*B + k)
    baby = np.arange(step, dtype=np.float64)
    giant = step * np.arange(giants, dtype=np.float64)
    rows = max(1, ARRAY_BLOCK // giants)
    for start in range(0, xs.size, rows):
        t = 2.0 * np.pi * xs[start:start + rows, None]
        baby_ang, giant_ang = t * baby, t * giant
        cos_sums = np.einsum("ik,jk->ij", np.cos(baby_ang), table)
        sin_sums = np.einsum("ik,jk->ij", np.sin(baby_ang), table)
        harmonic_sums = (np.cos(giant_ang) * cos_sums - np.sin(giant_ang) * sin_sums).sum(axis=1)
        out[start:start + rows] = kernel.delta * (1.0 + 2.0 * harmonic_sums)
    return out
