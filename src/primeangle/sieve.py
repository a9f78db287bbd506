"""Segmented prime sieving over short intervals and small arithmetic tables.

The window sieve certifies primality in (lo, hi] by striking multiples of
every prime <= sqrt(hi); prime powers p^k (k >= 2) are annotated separately
so that sums of the von Mangoldt function reduce to sums of log p, added
exactly by ExactSum and rounded once.  Streaming callers take the window
one SEGMENT_SIZE segment at a time (sieve_segments), so their memory does
not grow with the window length.

SmallTables holds mu(n), tau(n) and the (p, k) structure of Lambda(n) for
n <= N; Lambda's log is taken lazily.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .alpha import AngleOracle

__all__ = [
    "IntervalSieve",
    "SmallTables",
    "sieve_interval",
    "sieve_segments",
    "ExactSum",
    "mangoldt_sum_interval",
    "small_tables",
    "primes_with_small_angle",
    "SieveCeilingExceeded",
    "base_primes",
]

SIEVE_CEILING = 2 ** 48
SEGMENT_SIZE = 2 ** 20
# Base primes with at least this many multiples in a segment strike by
# slice assignment; sparser ones join one vectorised scatter.
SLICE_HITS = 64


class SieveCeilingExceeded(ValueError):
    """Requested window lies beyond the configured sieving ceiling."""


_BASE_CACHE: dict = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve; cached and grown on demand."""
    if limit <= 1:
        return np.empty(0, dtype=np.int64)
    if limit > _BASE_CACHE["limit"]:
        flags = np.ones(limit + 1, dtype=bool)
        flags[:2] = False
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p:: p] = False
        _BASE_CACHE["primes"] = np.flatnonzero(flags).astype(np.int64)
        _BASE_CACHE["limit"] = limit
    primes = _BASE_CACHE["primes"]
    return primes[primes <= limit]


@dataclass
class IntervalSieve:
    """Prime flags and prime-power annotations on the window (lo, hi].

    flags[i] corresponds to n = lo + 1 + i.  higher_powers lists
    (n, p, k) with n = p^k, k >= 2, in increasing n.  Immutable by
    convention after construction.
    """

    lo: int
    hi: int
    flags: np.ndarray
    higher_powers: list = field(default_factory=list)

    def is_prime(self, n: int) -> bool:
        if not (self.lo < n <= self.hi):
            raise ValueError(f"{n} outside window ({self.lo}, {self.hi}]")
        return bool(self.flags[n - self.lo - 1])

    def primes(self) -> np.ndarray:
        return np.flatnonzero(self.flags) + self.lo + 1

    def prime_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def prime_powers(self):
        """All (n, p, k) with Lambda(n) = log p in the window, sorted by n."""
        merged = [(int(p), int(p), 1) for p in self.primes()]
        merged.extend(self.higher_powers)
        merged.sort()
        return merged

    def mangoldt_terms(self):
        """(n, Lambda(n)) as arrays over every prime power n in the window.

        Primes come first in increasing order, then the higher powers.
        """
        primes = self.primes()
        if not self.higher_powers:
            return primes, np.log(primes.astype(np.float64))
        powers = np.array(self.higher_powers, dtype=np.int64)
        return (np.concatenate([primes, powers[:, 0]]),
                np.log(np.concatenate([primes, powers[:, 1]]).astype(np.float64)))


def iroot(n: int, k: int) -> int:
    """Exact floor k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise ValueError("need n >= 0 and k >= 1")
    if n == 0:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r ** k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _check_window(lo: int, hi: int, ceiling: int) -> None:
    if not (2 <= lo < hi):
        raise ValueError("need 2 <= lo < hi")
    if hi > ceiling:
        raise SieveCeilingExceeded(f"hi={hi} exceeds ceiling {ceiling}")


def _segment_flags(lo: int, hi: int, bases: np.ndarray) -> np.ndarray:
    """Prime flags of (lo, hi] from strikes of the base primes (all p*p <= hi).

    Base primes with at least SLICE_HITS multiples in the segment strike
    by slice assignment; the rest strike all their multiples in one
    vectorised scatter.
    """
    size = hi - lo
    flags = np.ones(size, dtype=bool)
    split = int(np.searchsorted(bases, size // SLICE_HITS + 1))
    for p in bases[:split].tolist():
        start = max(p * p, (lo // p + 1) * p)
        flags[start - lo - 1:: p] = False
    large = bases[split:]
    first = np.maximum(large * large, (lo // large + 1) * large) - lo - 1
    hits = np.maximum((size - 1 - first) // large + 1, 0)
    total = int(hits.sum())
    if total:
        # the j-th of all hits, the r-th multiple of its prime p, sits at
        # first + r*p = (first - (j - r)*p) + j*p
        origin = np.repeat(first - (np.cumsum(hits) - hits) * large, hits)
        flags[origin + np.arange(total) * np.repeat(large, hits)] = False
    return flags


def _higher_powers(lo: int, hi: int, bases: np.ndarray) -> list:
    """(n, p, k) for every n = p^k in (lo, hi] with k >= 2, sorted by n.

    For each k the bases p with lo < p^k <= hi are those in
    (iroot(lo, k), iroot(hi, k)].
    """
    powers = []
    for k in range(2, hi.bit_length()):
        top = iroot(hi, k)
        if top < 2:
            break
        low = iroot(lo, k)
        if low < top:
            cut = np.searchsorted(bases, [low, top], side="right")
            powers.extend((p ** k, p, k) for p in bases[cut[0]: cut[1]].tolist())
    powers.sort()
    return powers


def sieve_interval(lo: int, hi: int, ceiling: int = SIEVE_CEILING) -> IntervalSieve:
    """Sieve the window (lo, hi] with strikes of the base primes.

    Strikes run one SEGMENT_SIZE piece at a time, so their temporaries
    stay O(segment); the flags of the whole window are kept.
    """
    _check_window(lo, hi, ceiling)
    bases = base_primes(math.isqrt(hi))
    flags = np.empty(hi - lo, dtype=bool)
    for seg_lo in range(lo, hi, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE, hi)
        roots = bases[: int(np.searchsorted(bases, math.isqrt(seg_hi), side="right"))]
        flags[seg_lo - lo: seg_hi - lo] = _segment_flags(seg_lo, seg_hi, roots)
    return IntervalSieve(lo=lo, hi=hi, flags=flags, higher_powers=_higher_powers(lo, hi, bases))


def sieve_segments(lo: int, hi: int):
    """The window (lo, hi] as consecutive IntervalSieves of SEGMENT_SIZE numbers.

    Streaming callers hold one segment at a time, so their memory is
    O(SEGMENT_SIZE) whatever the window length.
    """
    _check_window(lo, hi, SIEVE_CEILING)
    return (sieve_interval(seg_lo, min(seg_lo + SEGMENT_SIZE, hi))
            for seg_lo in range(lo, hi, SEGMENT_SIZE))


class ExactSum:
    """Exact running sum of float64 arrays; value() rounds the total once.

    Each float is M * 2^(e - 53) with an integer |M| < 2^53 (np.frexp).
    Per exponent e, the high and low 26-bit halves of the M are summed
    with bincount, whose float64 partial sums stay exact integers below
    2^53 for up to 2^26 values per call.  The total is an integer
    multiple of 2^-1126, so value() is the correctly rounded sum of
    everything added, whatever the order or the split into calls.
    """

    _CHUNK = 2 ** 26
    _LOW = (1 << 26) - 1

    def __init__(self):
        self._total = 0

    def add(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("ExactSum needs finite values")
        for start in range(0, values.size, self._CHUNK):
            mant, exp = np.frexp(values[start: start + self._CHUNK])
            ints = np.ldexp(mant, 53).astype(np.int64)
            slot = exp + 1073
            high = np.bincount(slot, weights=ints >> 26)
            low = np.bincount(slot, weights=ints & self._LOW)
            for s in np.flatnonzero((high != 0) | (low != 0)).tolist():
                self._total += ((int(high[s]) << 26) + int(low[s])) << s

    def value(self) -> float:
        return self._total / (1 << 1126)


def mangoldt_sum_interval(X: int, Y: int) -> float:
    """psi(X) - psi(X - Y): sum of Lambda(n) over the window (X-Y, X].

    Streams the window segment by segment and adds each Lambda(n) = log p
    exactly (ExactSum), so the result is the correctly rounded sum.
    """
    if not (2 <= Y <= X / 2):
        raise ValueError("need 2 <= Y <= X/2")
    psi = ExactSum()
    for segment in sieve_segments(X - Y, X):
        psi.add(segment.mangoldt_terms()[1])
    return psi.value()


@dataclass
class SmallTables:
    """mu, tau and structural Lambda for all n <= limit."""

    limit: int
    mu: np.ndarray      # int8, mu(n) in {-1, 0, 1}
    tau: np.ndarray     # int32, divisor counts
    lam_p: np.ndarray   # int64, p if n = p^k else 0
    lam_k: np.ndarray   # int16, k if n = p^k else 0

    def mangoldt(self, n: int) -> float:
        p = self.lam_p[n]
        return math.log(p) if p else 0.0

    def mangoldt_pk(self, n: int):
        """(p, k) with n = p^k, or None."""
        p = int(self.lam_p[n])
        return (p, int(self.lam_k[n])) if p else None


def small_tables(N: int) -> SmallTables:
    """Sieve-filled mu/tau/Lambda tables for n in [0, N]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    size = N + 1
    mu = np.ones(size, dtype=np.int8)
    tau = np.zeros(size, dtype=np.int32)
    lam_p = np.zeros(size, dtype=np.int64)
    lam_k = np.zeros(size, dtype=np.int16)
    for d in range(1, size):
        tau[d::d] += 1
    for p in base_primes(N):
        p = int(p)
        mu[p::p] *= -1
        if p * p <= N:
            mu[p * p:: p * p] = 0
        pk, k = p, 1
        while pk <= N:
            lam_p[pk] = p
            lam_k[pk] = k
            pk *= p
            k += 1
    mu[0] = 0
    tau[0] = 0
    return SmallTables(limit=N, mu=mu, tau=tau, lam_p=lam_p, lam_k=lam_k)


@dataclass
class SmallAngleCount:
    """Result of counting primes p with certified ||p*alpha|| < delta."""

    count: int
    boundary_count: int
    sample: list  # first (p, ||p*alpha||) hits, capped


def primes_with_small_angle(sieve: IntervalSieve, oracle: AngleOracle,
                            delta: float, sample_cap: int = 32) -> SmallAngleCount:
    """Count primes p in the sieve window with certified ||p*alpha|| < delta.

    Verdicts come from AngleOracle.classify (float filter, exact integer
    fallback); straddles are counted separately as boundary cases
    (expected zero at default precision).
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if sieve.hi > oracle.n_max:
        raise ValueError("oracle does not cover the sieve window")
    primes = sieve.primes()
    values, below, boundary = oracle.classify(primes, delta)
    hits = np.flatnonzero(below)
    sample = [(int(primes[i]), float(values[i])) for i in hits[:sample_cap]]
    return SmallAngleCount(count=int(hits.size), boundary_count=int(np.count_nonzero(boundary)),
                           sample=sample)
