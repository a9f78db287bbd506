"""Periodized Gaussian weight and its truncated Fourier expansion.

The weight is the 1-periodic sum

    F(x) = sum_{n in Z} exp(-pi (x - n)^2 / delta^2),

a smooth stand-in for the indicator of ||x|| < delta: it is >= e^{-pi}
on ||x|| <= delta, uniformly bounded by F(0) <= 1 + 3 exp(-pi/delta^2),
and decays like exp(-pi T^2) once ||x|| >= T delta.  Poisson summation
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
    "kernel_for_experiment",
    "f_direct",
    "f_direct_array",
    "f_fourier",
    "truncation_bound",
    "truncation_bound_log10",
    "default_direct_terms",
]

LOG10_FLOAT_MIN = math.log10(5e-324)  # below this the closed form underflows to 0


def default_direct_terms(delta: float) -> int:
    """Integer-shift radius keeping the dropped direct tail below 1e-30."""
    return max(3, math.ceil(delta * math.sqrt(30.0 / math.pi)))


def f_direct(x: float, delta: float, terms: int | None = None) -> float:
    """Direct evaluation of the periodized Gaussian at x.

    Sums the shifts n with |n - round(x)| <= terms; with the default
    radius the dropped tail is below 1e-30 for every delta <= 1/2.
    1-periodic and even by construction.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if terms is None:
        terms = default_direct_terms(delta)
    center = round(x)
    inv = math.pi / (delta * delta)
    return math.fsum(
        math.exp(-inv * (x - n) * (x - n))
        for n in range(center - terms, center + terms + 1)
    )


def f_direct_array(xs: np.ndarray, delta: float) -> np.ndarray:
    """f_direct over a float64 array, summing the shifts in one fixed order.

    Each entry adds the same Gaussian terms as f_direct with its default
    radius, in increasing shift order instead of math.fsum, so it agrees
    with f_direct to a few ulps.
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    terms = default_direct_terms(delta)
    xs = np.asarray(xs, dtype=np.float64)
    center = np.rint(xs)
    inv = math.pi / (delta * delta)
    total = np.zeros_like(xs)
    for shift in range(-terms, terms + 1):
        d = xs - (center + shift)
        total += np.exp(-inv * d * d)
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

    def c(self, ell: int) -> float:
        if not (1 <= ell <= self.L):
            raise ValueError(f"l={ell} outside 1..{self.L}")
        return float(self.coeffs[ell - 1])

    def cosine_sum(self, x: float) -> float:
        """sum over 0 < |l| <= L of c(|l|) e(l x)  =  2 sum c(l) cos(2 pi l x)."""
        ang = (2.0 * np.pi * x) * np.arange(1, self.L + 1)
        return 2.0 * float(np.dot(self.coeffs, np.cos(ang)))


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


def kernel_for_experiment(X: int, eps: float, delta: float) -> SmoothingKernel:
    """Kernel with the experiment-grade truncation length L = ceil(X^eps / delta)."""
    L = math.ceil(X ** eps / delta)
    return build_kernel(delta, L)


def f_fourier(x: float, kernel: SmoothingKernel) -> float:
    """Truncated Fourier form: delta + delta * sum_{0<|l|<=L} c(|l|) e(l x).

    Real by conjugate symmetry; differs from the direct form by at most
    kernel.tail_bound everywhere.
    """
    return kernel.delta * (1.0 + kernel.cosine_sum(x))
