"""Segmented prime sieving over short intervals and small arithmetic tables.

The window sieve certifies primality in (lo, hi] by striking multiples of
every prime <= sqrt(hi); prime powers p^k (k >= 2) are annotated separately
so that sums of the von Mangoldt function reduce to sums of log p, added
exactly by ExactSum and rounded once.  Since lo >= 2, no even number of the
window is prime, so the flags cover odd numbers only.  Each segment starts
from a copy of a presieve tile that has the multiples of 3, 5, 7, 11 and 13
struck (period 15015 on odd numbers); larger primes strike by slice when
they have many multiples in the segment, the rest together in rounds of
one vectorised strike each.  Streaming callers take the window one
SEGMENT_SIZE segment at a time (sieve_segments), so their memory does not
grow with the window length.

SmallTables holds mu(n), tau(n) and Lambda(n) for n <= N as plain arrays
indexed by n, filled once by small_tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
# Base primes with at least this many multiples among a segment's numbers
# (half of them odd), or below sqrt(SLICE_HITS * s) for s odd numbers, strike
# by slice assignment; the rest strike together in vectorised rounds.  The
# root bound (the larger only below s = 65536) caps the rounds at sqrt(s / 64).
SLICE_HITS = 64
# Relative margin around float k-th roots of window ends: the float root is
# within a few ulps (~1e-15) of the exact one for every hi <= SIEVE_CEILING.
ROOT_MARGIN = 2.0 ** -30
# The presieve tile: _PRESIEVE[j] is False iff the odd number 2j + 1 is a
# multiple of a wheel prime.  Two periods, so any run of one period is a
# plain slice.
_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_WHEEL)
_PRESIEVE = np.gcd(2 * np.arange(2 * _PERIOD) + 1, _PERIOD) == 1


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
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


@dataclass
class IntervalSieve:
    """Prime flags and prime-power annotations on the window (lo, hi].

    flags holds the odd numbers only: flags[i] corresponds to
    n = odd0 + 2i, where odd0 = lo + 1 + (lo & 1) is the first odd number
    of the window; even n > 2 are never prime.  Immutable by convention
    after construction.
    """

    lo: int
    hi: int
    flags: np.ndarray

    @property
    def odd0(self) -> int:
        return self.lo + 1 + (self.lo & 1)

    @cached_property
    def higher_powers(self) -> list:
        """(n, p, k) with n = p^k, k >= 2, in increasing n; computed on first read."""
        return _higher_powers(self.lo, self.hi, base_primes(math.isqrt(self.hi)))

    def is_prime(self, n: int) -> bool:
        if not (self.lo < n <= self.hi):
            raise ValueError(f"{n} outside window ({self.lo}, {self.hi}]")
        return bool(n & 1 and self.flags[(n - self.odd0) // 2])

    def primes(self) -> np.ndarray:
        primes = np.flatnonzero(self.flags)
        primes *= 2
        primes += self.odd0
        return primes

    def prime_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def prime_powers(self):
        """All (n, p, k) with Lambda(n) = log p in the window, sorted by n."""
        merged = [(int(p), int(p), 1) for p in self.primes()]
        merged.extend(self.higher_powers)
        merged.sort()
        return merged

    def mangoldt_terms(self, primes=None):
        """(n, Lambda(n)) as arrays over every prime power n in the window.

        Primes come first in increasing order, then the higher powers.
        primes, if given, is self.primes(), from a caller that has it.
        """
        if primes is None:
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


def _check_window(lo: int, hi: int) -> None:
    if not (2 <= lo < hi):
        raise ValueError("need 2 <= lo < hi")
    if hi > SIEVE_CEILING:
        raise SieveCeilingExceeded(f"hi={hi} exceeds ceiling {SIEVE_CEILING}")


def _segment_flags(flags: np.ndarray, lo: int, bases: np.ndarray) -> None:
    """Fill flags with the primality of the odd numbers lo + 1 + (lo & 1) + 2i.

    bases is base_primes(limit) for a limit whose square reaches the last
    number (primes past it strike nothing).  flags starts as a copy of the
    presieve tile, and the wheel primes inside the window are set back.
    Every other odd base p strikes its odd multiples from max(p * p, lo + 1)
    on: primes below the split that SLICE_HITS sets by slice assignment,
    the rest in rounds that strike one multiple of every prime still
    inside the segment.
    """
    size = flags.size
    odd0 = lo + 1 + (lo & 1)
    phase = (odd0 // 2) % _PERIOD
    flags[:] = np.resize(_PRESIEVE[phase: phase + _PERIOD], size)
    for p in _WHEEL:
        if lo < p < odd0 + 2 * size:
            flags[(p - odd0) // 2] = True
    primes = bases[len(_WHEEL) + 1:]  # 2 and the wheel primes strike nothing here
    # the least odd m >= p with m * p > lo, then the index of m * p
    offsets = np.maximum(primes, (lo + primes) // primes)
    offsets |= 1
    offsets *= primes
    offsets -= odd0
    offsets >>= 1
    split = int(np.searchsorted(primes, max(2 * size // SLICE_HITS + 1,
                                            math.isqrt(SLICE_HITS * size))))
    for start, p in zip(offsets[:split].tolist(), primes[:split].tolist()):
        flags[start:: p] = False
    offsets, primes = offsets[split:], primes[split:]
    while offsets.size:
        inside = offsets < size
        offsets, primes = offsets[inside], primes[inside]
        flags[offsets] = False
        offsets += primes


def _higher_powers(lo: int, hi: int, bases: np.ndarray) -> list:
    """(n, p, k) for every n = p^k in (lo, hi] with k >= 2, sorted by n.

    For each k the bases p with lo < p^k <= hi are those in
    (iroot(lo, k), iroot(hi, k)].  Float k-th roots widened by ROOT_MARGIN
    bracket the exact ones, so the exact pair of iroots is taken only
    where the brackets cannot prove that interval empty or iroot(hi, k) < 2.
    """
    powers = []
    lo_f, hi_f = float(lo), float(hi)
    for k in range(2, hi.bit_length()):
        up = hi_f ** (1.0 / k) * (1.0 + ROOT_MARGIN)
        if up < 2.0:
            break
        if math.floor(lo_f ** (1.0 / k) * (1.0 - ROOT_MARGIN)) == math.floor(up):
            continue
        top = iroot(hi, k)
        if top < 2:
            break
        low = iroot(lo, k)
        if low < top:
            cut = np.searchsorted(bases, [low, top], side="right")
            powers.extend((p ** k, p, k) for p in bases[cut[0]: cut[1]].tolist())
    powers.sort()
    return powers


def sieve_interval(lo: int, hi: int) -> IntervalSieve:
    """Sieve the window (lo, hi] with strikes of the base primes.

    Strikes run one SEGMENT_SIZE piece at a time, so their temporaries
    stay O(segment); the odd flags of the whole window are kept.
    """
    _check_window(lo, hi)
    bases = base_primes(math.isqrt(hi))
    below = (lo + 1) // 2  # odd numbers <= lo
    flags = np.empty((hi + 1) // 2 - below, dtype=bool)
    for seg_lo in range(lo, hi, SEGMENT_SIZE):
        seg_hi = min(seg_lo + SEGMENT_SIZE, hi)
        _segment_flags(flags[(seg_lo + 1) // 2 - below: (seg_hi + 1) // 2 - below], seg_lo, bases)
    return IntervalSieve(lo=lo, hi=hi, flags=flags)


def sieve_segments(lo: int, hi: int):
    """The window (lo, hi] as consecutive IntervalSieves of SEGMENT_SIZE numbers.

    Streaming callers hold one segment at a time, so their memory is
    O(SEGMENT_SIZE) whatever the window length.  The base primes are
    sieved once, up to sqrt(hi), so each segment only slices them.
    """
    _check_window(lo, hi)
    base_primes(math.isqrt(hi))
    return (sieve_interval(seg_lo, min(seg_lo + SEGMENT_SIZE, hi))
            for seg_lo in range(lo, hi, SEGMENT_SIZE))


class ExactSum:
    """Exact running sum of float64 arrays; value() rounds the total once.

    Each float is M * 2^(s - 1126) with an integer |M| < 2^53 and a slot
    s = e + 1073 in [0, 2098) (np.frexp).  Slots group into buckets of
    2^_BUCKET_BITS consecutive ones: per bucket, the high and low 26-bit
    halves of the M, each shifted left by its slot's offset inside the
    bucket, are summed in int64 (np.add.at), so Python loops over the at
    most 132 buckets, not over every distinct exponent (R. M. Neal's
    "small superaccumulator", arXiv:1505.05571).  The total is an integer
    multiple of 2^-1126, so value() is the correctly rounded sum of
    everything added, whatever the order or the split into calls.
    """

    # A shifted half is at most 2^27 * 2^15 = 2^42 in magnitude, so the
    # int64 sums of a chunk of 2^20 of them stay within 2^62 < 2^63.
    _CHUNK = 2 ** 20
    _BUCKET_BITS = 4
    _BUCKETS = 132  # 2098 slots in buckets of 16
    _LOW = (1 << 26) - 1

    def __init__(self):
        self._total = 0

    def add(self, values) -> None:
        values = np.asarray(values, dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError("ExactSum needs finite values")
        for start in range(0, values.size, self._CHUNK):
            mant, bucket = np.frexp(values[start: start + self._CHUNK])
            ints = np.ldexp(mant, 53).astype(np.int64)
            bucket += 1073  # the slot, until the shift below
            offset = bucket & ((1 << self._BUCKET_BITS) - 1)
            bucket >>= self._BUCKET_BITS
            high = np.zeros(self._BUCKETS, dtype=np.int64)
            low = np.zeros(self._BUCKETS, dtype=np.int64)
            np.add.at(high, bucket, (ints >> 26) << offset)
            ints &= self._LOW
            ints <<= offset
            np.add.at(low, bucket, ints)
            for b in np.flatnonzero(high | low).tolist():
                self._total += ((int(high[b]) << 26) + int(low[b])) << (b << self._BUCKET_BITS)

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
    """mu, tau and Lambda for all n <= limit, indexed by n."""

    limit: int
    mu: np.ndarray      # int8, mu(n) in {-1, 0, 1}
    tau: np.ndarray     # int32, divisor counts
    lam: np.ndarray     # float64, Lambda(n): math.log(p) if n = p^k, else 0


def small_tables(N: int) -> SmallTables:
    """Sieve-filled mu/tau/Lambda tables for n in [0, N]."""
    if N < 1:
        raise ValueError("N must be >= 1")
    size, root = N + 1, math.isqrt(N)
    mu = np.ones(size, dtype=np.int8)
    tau = np.zeros(size, dtype=np.int32)
    lam = np.zeros(size)
    primes = base_primes(N)
    small, large = np.split(primes, [int(np.searchsorted(primes, root, side="right"))])
    for p in small.tolist():
        mu[p::p] *= -1
        mu[p * p:: p * p] = 0
        log_p, pk = math.log(p), p
        while pk <= N:
            lam[pk] = log_p
            pk *= p
    lam[large] = [math.log(p) for p in large.tolist()]
    # tau: a divisor d < n/d adds 2 to tau(n), and d = n/d adds 1.  mu: a prime
    # p > sqrt(N) divides n <= N at most once and is its only such factor, so
    # it flips the sign at each multiple dp, d <= N/p < sqrt(N)
    for d in range(1, root + 1):
        tau[d * d] += 1
        tau[d * (d + 1)::d] += 2
        mu[d * large[:int(np.searchsorted(large, N // d, side="right"))]] *= -1
    mu[0] = 0
    return SmallTables(limit=N, mu=mu, tau=tau, lam=lam)


@dataclass
class SmallAngleCount:
    """Result of counting primes p with certified ||p*alpha|| < delta."""

    count: int
    boundary_count: int


def primes_with_small_angle(sieve: IntervalSieve, oracle: AngleOracle,
                            delta: float, dists=None) -> SmallAngleCount:
    """Count primes p in the sieve window with certified ||p*alpha|| < delta.

    Verdicts come from AngleOracle.verdicts (float filter, exact integer
    fallback) on dists, which is oracle.dists(sieve.primes()) and is
    computed here unless a caller that needs it for other sums passes it;
    straddles are counted separately as boundary cases (expected zero at
    default precision).
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if sieve.hi > oracle.n_max:
        raise ValueError("oracle does not cover the sieve window")
    if dists is None:
        dists = oracle.dists(sieve.primes())
    below, boundary = oracle.verdicts(*dists, delta)
    return SmallAngleCount(count=int(np.count_nonzero(below)),
                           boundary_count=int(np.count_nonzero(boundary)))
