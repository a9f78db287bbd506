"""Segmented prime sieving over short intervals and small arithmetic tables.

The window sieve certifies primality in (lo, hi] by striking multiples of
every prime <= sqrt(hi); prime powers p^k (k >= 2) are annotated separately
so that sums of the von Mangoldt function reduce to sums of log p, added
exactly by ExactSum and rounded once.  Since lo >= 2, no even number of the
window is prime, so the flags cover odd numbers only.  They are laid out by
the phase of the presieve tile, which has the multiples of 3, 5, 7, 11 and
13 struck (period 15015 on odd numbers): the window's first odd number sits
at its phase in a table of rows of one period each, filled with the tile
from its first slot on.  Every odd number coprime to the wheel then lies in
one of the tile's 5760 columns, so the primes are read off those columns
alone, each hit mapped back to its number by one gather from a
process-level offset table (_column_offsets): int32, 4 bytes a candidate
slot, so 0.83 MB for the 36 rows of a full segment, grown on demand to
the longest gathered window like the base-prime cache, and int64 only
once rows * 30030 reaches 2^31.  Larger primes strike by slice when they
have many multiples in the segment, the rest together in rounds of one
vectorised strike each, round r over the prefix of primes small enough to
have an r-th multiple there; every strike assigns one shared, read-only
0-d False (_FALSE).
Streaming callers take the window one SEGMENT_SIZE segment at a time
(sieve_segments), so their memory does not grow with the window length.
Each base prime's first multiple is found once per window, and its next
offset carried from segment to segment (the bucket sieve's carry,
T. Oliveira e Silva, S. Herzog and S. Pardi, Math. Comp. 83 (2014), whose
segments also start from a pre-sieved pattern).

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
# root bound (the larger only below s = 2^19, a full segment) caps the rounds
# at sqrt(s / 128).
SLICE_HITS = 128
# Relative margin around float k-th roots of window ends: the float root is
# within a few ulps (~1e-15) of the exact one for every hi <= SIEVE_CEILING.
ROOT_MARGIN = 2.0 ** -30
# The presieve tile: _PRESIEVE[j] is False iff the odd number 2j + 1 is a
# multiple of a wheel prime, and the flag of every odd number 2j + 1 past
# the wheel follows it with j mod _PERIOD.  _COLUMNS are the tile's True
# slots, the only ones where a table laid out by phase can hold a prime
# past the wheel.
_WHEEL = (3, 5, 7, 11, 13)
_PERIOD = math.prod(_WHEEL)
_PRESIEVE = np.gcd(2 * np.arange(_PERIOD) + 1, _PERIOD) == 1
_COLUMNS = np.flatnonzero(_PRESIEVE)
# IntervalSieve.primes gathers the candidate columns only for windows of
# at least GATHER_MIN odd numbers above GATHER_LO.  Below about e^20 = 4.9e8
# more than one odd number in ten is prime, and np.flatnonzero takes its
# branch-free path over the flags, which costs less than the gather and
# the mapping back; above it the flags are sparse enough for its
# branching path, and among the candidates they are not.  GATHER_LO > 13,
# so no wheel prime lies in a gathered window.
GATHER_MIN = 2 ** 16
GATHER_LO = 2 ** 29
# The value that every strike assigns: a 0-d array, which numpy copies
# into a slice or an index list as it is, where a Python False is
# converted anew by each of the segment's ~1,000 slice strikes.  It views
# an immutable bytes object, so it is read-only for good: no caller can
# set it to True and turn the strikes into no-ops.
_FALSE = np.frombuffer(bytes(1), dtype=bool).reshape(())


class SieveCeilingExceeded(ValueError):
    """Requested window lies beyond the configured sieving ceiling."""


_BASE_CACHE: dict = {"limit": 0, "primes": np.empty(0, dtype=np.int64)}
_OFFSETS_CACHE: dict = {"rows": 0, "offsets": np.empty(0, dtype=np.int32)}


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain sieve on the odd numbers; cached and grown on demand.

    flags[i] stands for the odd number 2i + 1.  Primes are twice as dense
    among the odd numbers as among all integers, 15.7% against 7.8% up to
    10^6, which keeps np.flatnonzero on its branch-free path, and the
    table is half as long: growing it to 10^6 took 4.0 -> 1.3 ms.  Slot 0,
    the number 1, is set so that it maps to the prime 2 in place.
    """
    if limit <= 1:
        return np.empty(0, dtype=np.int64)
    if limit > _BASE_CACHE["limit"]:
        flags = np.ones((limit + 1) // 2, dtype=bool)
        for i in range(1, (math.isqrt(limit) + 1) // 2):
            if flags[i]:
                p = 2 * i + 1
                flags[p * p // 2:: p] = False
        primes = np.flatnonzero(flags).astype(np.int64, copy=False)
        primes *= 2
        primes += 1
        primes[0] = 2
        _BASE_CACHE["primes"] = primes
        _BASE_CACHE["limit"] = limit
    primes = _BASE_CACHE["primes"]
    return primes[: int(np.searchsorted(primes, limit, side="right"))]


def _column_offsets(rows: int) -> np.ndarray:
    """offsets[row * 5760 + col] = row * 30030 + 2 * _COLUMNS[col] for at least rows rows.

    Entry h is the distance, in numbers, from the first slot of a table
    laid out by phase to the h-th slot of its candidate columns.  The
    table is built on first use and grown on demand, like the base-prime
    cache, and never to fewer rows than a full segment needs at any
    phase, 36 rows and 0.83 MB, so that a window's segments do not grow
    it one row at a time.  It is int32 while rows * 30030 < 2^31, which
    holds every entry, and int64 past that.
    """
    if rows > _OFFSETS_CACHE["rows"]:
        rows = max(rows, -(-(_PERIOD + SEGMENT_SIZE // 2) // _PERIOD))
        step = 2 * _PERIOD  # the numbers of one row
        dtype = np.int32 if rows * step < 2 ** 31 else np.int64
        offsets = np.arange(0, rows * step, step, dtype=dtype)[:, None] \
            + (2 * _COLUMNS).astype(dtype)
        _OFFSETS_CACHE["offsets"] = offsets.reshape(-1)
        _OFFSETS_CACHE["rows"] = rows
    return _OFFSETS_CACHE["offsets"]


@dataclass
class IntervalSieve:
    """Prime flags and prime-power annotations on the window (lo, hi].

    The flags hold the odd numbers only: flags[i] corresponds to
    n = odd0 + 2i, where odd0 = lo + 1 + (lo & 1) is the first odd number
    of the window; even n > 2 are never prime.  They are the slots from
    phase = (odd0 // 2) mod 15015 on of table, whose rows are periods of
    the presieve tile, so slot j of a row holds an odd number with
    j = (n // 2) mod 15015.  Every slot of table outside the flags is
    False.  Immutable by convention after construction.
    """

    lo: int
    hi: int
    table: np.ndarray

    @property
    def odd0(self) -> int:
        return _odd_layout(self.lo, self.hi)[0]

    @property
    def flags(self) -> np.ndarray:
        _, size, phase = _odd_layout(self.lo, self.hi)
        return self.table.reshape(-1)[phase: phase + size]

    @cached_property
    def higher_powers(self) -> list:
        """(n, p, k) with n = p^k, k >= 2, in increasing n; computed on first read."""
        return _higher_powers(self.lo, self.hi, base_primes(math.isqrt(self.hi)))

    def is_prime(self, n: int) -> bool:
        if not (self.lo < n <= self.hi):
            raise ValueError(f"{n} outside window ({self.lo}, {self.hi}]")
        return bool(n & 1 and self.flags[(n - self.odd0) // 2])

    def primes(self) -> np.ndarray:
        """The primes of the window in increasing order.

        Windows of GATHER_MIN odd numbers and more above GATHER_LO gather
        the tile's candidate columns first and look for the True flags
        among them only (38% of the flags); hit h of that (rows, 5760)
        gather is the odd number
        odd0 - 2 * phase + row * 30030 + 2 * _COLUMNS[h mod 5760], read
        as odd0 - 2 * phase plus entry h of _column_offsets: one gather,
        a widening copy and an add.
        """
        odd0, size, phase = _odd_layout(self.lo, self.hi)
        if size < GATHER_MIN or self.lo < GATHER_LO:
            primes = np.flatnonzero(self.flags)
            primes *= 2
            primes += odd0
            return primes
        hits = np.flatnonzero(np.take(self.table, _COLUMNS, axis=1))
        # every hit is below rows * 5760, so "clip" never acts; it only
        # spares the gather numpy's bounds check
        offsets = np.take(_column_offsets(self.table.shape[0]), hits, mode="clip")
        primes = offsets.astype(np.int64)
        primes += odd0 - 2 * phase
        return primes

    def prime_count(self) -> int:
        return int(np.count_nonzero(self.flags))

    def prime_powers(self):
        """All (n, p, k) with Lambda(n) = log p in the window, sorted by n."""
        merged = [(int(p), int(p), 1) for p in self.primes()]
        merged.extend(self.higher_powers)
        merged.sort()
        return merged

    def mangoldt_terms(self, primes: np.ndarray):
        """(powers, lam): the higher powers of the window and Lambda over every prime power.

        primes is self.primes().  powers holds the n = p^k, k >= 2, in
        increasing order; lam holds Lambda(n) = log p over primes, then powers.
        """
        powers = np.array(self.higher_powers, dtype=np.int64).reshape(-1, 3)
        lam = np.empty(primes.size + len(powers))
        lam[:primes.size] = primes
        lam[primes.size:] = powers[:, 1]
        return powers[:, 0], np.log(lam, out=lam)


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


def _odd_layout(lo: int, hi: int) -> tuple:
    """(odd0, size, phase) of the window (lo, hi]: its first odd number, its
    count of odd numbers, and the slot of odd0 in the presieve tile."""
    odd0 = lo + 1 + (lo & 1)
    return odd0, (hi + 1) // 2 - (lo + 1) // 2, (odd0 // 2) % _PERIOD


def _check_window(lo: int, hi: int) -> None:
    if not (2 <= lo < hi):
        raise ValueError("need 2 <= lo < hi")
    if hi > SIEVE_CEILING:
        raise SieveCeilingExceeded(f"hi={hi} exceeds ceiling {SIEVE_CEILING}")


class _Strikes:
    """The next strike of every base prime of a window, carried from segment to segment.

    primes are the odd base primes of (lo, hi] past the wheel, up to
    sqrt(hi); offsets[j] is the index, among the odd numbers of the
    segment that starts at lo, of the first multiple m * primes[j] that
    the prime strikes there: m odd, m >= primes[j] and m * primes[j] > lo.
    The offsets are found by one division per prime for the window, and
    _segment_flags moves them past each segment it sieves.
    """

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi
        # 2 and the wheel primes strike nothing here
        self.primes = base_primes(math.isqrt(hi))[len(_WHEEL) + 1:]
        offsets = np.maximum(self.primes, (lo + self.primes) // self.primes)
        offsets |= 1
        offsets *= self.primes
        offsets -= _odd_layout(lo, hi)[0]
        offsets >>= 1
        self.offsets = offsets
        self.scratch = np.empty_like(offsets)
        self._plans: dict = {}

    def plan(self, size: int):
        """(split, slice_primes, counts) for a segment of size odd numbers.

        The primes below index split, listed in slice_primes, strike by
        slice.  Round r >= 1 can strike only primes p <= size // r, so
        counts[r] is how many of the others take part in it (counts[0]:
        all of them), and counts ends with 0.
        """
        if size not in self._plans:
            split = int(np.searchsorted(self.primes, max(2 * size // SLICE_HITS + 1,
                                                          math.isqrt(SLICE_HITS * size))))
            rest = self.primes[split:]
            rounds = size // int(rest[0]) if rest.size else -1
            counts = np.searchsorted(rest, size // np.arange(1, rounds + 1), side="right")
            self._plans[size] = (split, self.primes[:split].tolist(),
                                 [rest.size] + counts.tolist() + [0])
        return self._plans[size]


def _segment_flags(buf: np.ndarray, strikes: _Strikes, hi: int) -> None:
    """Strike the base primes' multiples from the odd numbers of (strikes.lo, hi] in buf[:-1].

    buf[:-1] holds the segment's presieved flags, which are the primality
    of its odd numbers once this returns.  strikes holds the offsets at
    lo = strikes.lo of the base primes of a window that reaches at least
    hi; on return they are carried to the segment that starts at hi.
    buf[-1] is a sentinel that the rounds strike in place of every index
    past the segment.  Every base prime p past the wheel strikes its odd
    multiples from max(p * p, lo + 1) on: primes below the split that
    SLICE_HITS sets by slice assignment, the rest in rounds; round r
    strikes the r-th multiple of the prefix of primes p <= size // r, the
    only ones it can reach, so no round compacts its arrays.
    """
    lo = strikes.lo
    size = buf.size - 1
    flags = buf[:size]
    primes, offsets = strikes.primes, strikes.offsets
    split, slice_primes, counts = strikes.plan(size)
    carry = hi < strikes.hi  # the window's last segment carries nothing on
    if carry:
        # primes with p * p > lo may start at or past p: their next offset
        # is re-reduced exactly, the others' follows from where they stopped
        late = int(np.searchsorted(primes, math.isqrt(lo), side="right"))
        late_next = offsets[late:] - size
    head = offsets[:split]
    for start, p in zip(head.tolist(), slice_primes):
        flags[start:: p] = _FALSE
    rest, rest_primes = offsets[split:], primes[split:]
    index = strikes.scratch[split:]
    for k, k_next in zip(counts, counts[1:]):
        np.minimum(rest[:k], size, out=index[:k])
        buf[index[:k]] = _FALSE
        rest[:k_next] += rest_primes[:k_next]
    strikes.lo = hi
    if carry:
        head -= size
        head %= primes[:split]
        rest -= size
        np.right_shift(rest, 63, out=index)  # -1 where rest < 0, else 0
        index &= rest_primes
        rest += index
        offsets[late:] = np.where(late_next < 0, late_next % primes[late:], late_next)


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


def sieve_interval(lo: int, hi: int, strikes: _Strikes | None = None) -> IntervalSieve:
    """Sieve the window (lo, hi] with strikes of the base primes.

    The odd flags of the whole window are laid out by phase in a table of
    presieve rows (IntervalSieve), filled with the tile in one broadcast
    copy, with one sentinel slot past them.  The wheel primes inside the
    window are set back, the base primes strike the whole window in one
    pass of _segment_flags, and everything before the flags and past them
    is cleared.  Its memory is the table plus O(1) arrays over the base
    primes.  strikes, from sieve_segments, carries the base primes'
    offsets to lo from the segment before and on to hi; without it they
    are found afresh.
    """
    _check_window(lo, hi)
    if strikes is None:
        strikes = _Strikes(lo, hi)
    elif strikes.lo != lo or strikes.hi < hi:
        raise ValueError(f"strikes carried to {strikes.lo} for a window to {strikes.hi}, "
                         f"not to {lo} for one to {hi}")
    odd0, size, phase = _odd_layout(lo, hi)
    table = np.empty((-(-(phase + size + 1) // _PERIOD), _PERIOD), dtype=bool)
    table[:] = _PRESIEVE
    buf = table.reshape(-1)
    buf[:phase] = False
    for p in _WHEEL:
        if lo < p <= hi:
            buf[phase + (p - odd0) // 2] = True
    _segment_flags(buf[phase: phase + size + 1], strikes, hi)
    buf[phase + size:] = False
    return IntervalSieve(lo=lo, hi=hi, table=table)


def sieve_segments(lo: int, hi: int):
    """The window (lo, hi] as consecutive IntervalSieves of SEGMENT_SIZE numbers.

    Streaming callers hold one segment at a time, so their memory is
    O(SEGMENT_SIZE) whatever the window length.  The base primes are
    sieved once, up to sqrt(hi), and their first offsets found once for
    the window; each segment's sieve_interval carries them on to the next.
    """
    _check_window(lo, hi)
    strikes = _Strikes(lo, hi)
    return (sieve_interval(seg_lo, min(seg_lo + SEGMENT_SIZE, hi), strikes)
            for seg_lo in range(lo, hi, SEGMENT_SIZE))


class ExactSum:
    """Exact running sum of float64 arrays; value() rounds the total once.

    Each float is M * 2^(s - 1126) with an integer |M| < 2^53 and a slot
    s = e + 1073 in [0, 2098) (np.frexp).  A chunk whose slots span at
    most 2^_BUCKET_BITS consecutive values (every chunk of log p, say) is
    one group: the high and low 26-bit halves of its M, each shifted left
    by its slot's offset from the least slot, are summed with two plain
    int64 sums.  Other chunks group their slots into buckets of
    2^_BUCKET_BITS consecutive ones, summed the same way per bucket
    (np.add.at), so Python loops over the at most 132 buckets, not over
    every distinct exponent (R. M. Neal's "small superaccumulator",
    arXiv:1505.05571).  The total is an integer multiple of 2^-1126, so
    value() is the correctly rounded sum of everything added, whatever
    the order or the split into calls.
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
            mant, slot = np.frexp(values[start: start + self._CHUNK])
            mant *= 2.0 ** 53
            ints = mant.astype(np.int64)
            high = np.right_shift(ints, 26, out=mant.view(np.int64))
            slot += 1073
            least = int(slot.min())
            if int(slot.max()) - least < 1 << self._BUCKET_BITS:
                slot -= least
                high <<= slot
                ints &= self._LOW
                ints <<= slot
                self._total += ((int(high.sum()) << 26) + int(ints.sum())) << least
                continue
            offset = slot & ((1 << self._BUCKET_BITS) - 1)
            slot >>= self._BUCKET_BITS  # the bucket
            high <<= offset
            ints &= self._LOW
            ints <<= offset
            high_sums = np.zeros(self._BUCKETS, dtype=np.int64)
            low_sums = np.zeros(self._BUCKETS, dtype=np.int64)
            np.add.at(high_sums, slot, high)
            np.add.at(low_sums, slot, ints)
            for b in np.flatnonzero(high_sums | low_sums).tolist():
                self._total += (((int(high_sums[b]) << 26) + int(low_sums[b]))
                                << (b << self._BUCKET_BITS))

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
        psi.add(segment.mangoldt_terms(segment.primes())[1])
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
    """Result of counting primes p with ||p*alpha|| < delta."""

    count: int
    boundary_count: int     # primes the float filter left, decided in alpha


def primes_with_small_angle(sieve: IntervalSieve, oracle: AngleOracle,
                            delta: float, angles: tuple) -> SmallAngleCount:
    """Count primes p in the sieve window with ||p*alpha|| < delta, exactly.

    Verdicts come from AngleOracle.verdicts, exact at every oracle
    precision.  angles is (primes, x), the window pass's primes =
    sieve.primes() and their dists x = oracle.dists(primes).
    """
    if not (0.0 < delta <= 0.5):
        raise ValueError("delta must lie in (0, 1/2]")
    if sieve.hi > oracle.n_max:
        raise ValueError("oracle does not cover the sieve window")
    below, exact = oracle.verdicts(*angles, delta)
    return SmallAngleCount(count=int(np.count_nonzero(below)),
                           boundary_count=int(np.count_nonzero(exact)))
