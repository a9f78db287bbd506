"""Segmented sieve, arithmetic tables, and small-angle prime counts."""

import math
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primeangle.sieve as sieve_mod
from primeangle.alpha import AlphaSpec, build_angle_oracle
from primeangle.config import ExperimentConfig
from primeangle.experiments import run_prime_count
from primeangle.reference import (
    divisors,
    naive_mangoldt_pk,
    naive_mu,
    naive_tau,
    trial_division_primes,
)
from primeangle.sieve import (
    SieveCeilingExceeded,
    base_primes,
    mangoldt_sum_interval,
    primes_with_small_angle,
    sieve_interval,
    sieve_segments,
    small_tables,
)

SQRT2 = AlphaSpec.sqrt(2)
WHEEL_PERIOD = 30030  # 2*3*5*7*11*13: the presieve tile repeats with it


def test_sieve_50_100():
    s = sieve_interval(50, 100)
    assert list(s.primes()) == [53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert s.higher_powers == [(64, 2, 6), (81, 3, 4)]


def test_higher_powers_are_computed_on_first_read(monkeypatch):
    real, calls = sieve_mod._higher_powers, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sieve_mod, "_higher_powers", counting)
    config = ExperimentConfig(X=10 ** 5, Y=2000, delta=0.1, eps=0.01, alpha=SQRT2)
    assert run_prime_count(config, force=True).value > 0
    s = sieve_interval(50, 100)
    assert s.prime_count() == 10 and calls == []
    assert s.higher_powers == [(64, 2, 6), (81, 3, 4)]
    assert s.higher_powers is s.higher_powers and len(calls) == 1


def exact_higher_powers(lo, hi, bases):
    """_higher_powers with the exact pair of iroots for every k: the reference."""
    powers = []
    for k in range(2, hi.bit_length()):
        top = sieve_mod.iroot(hi, k)
        if top < 2:
            break
        low = sieve_mod.iroot(lo, k)
        if low < top:
            cut = np.searchsorted(bases, [low, top], side="right")
            powers.extend((p ** k, p, k) for p in bases[cut[0]: cut[1]].tolist())
    powers.sort()
    return powers


def test_higher_powers_float_filter_matches_exact_roots():
    ceiling = sieve_mod.SIEVE_CEILING
    edges = {p ** k + d for p in (2, 3, 5, 7, 13, 101, 65521, 16777213)
             for k in range(2, 41) if p ** k < ceiling for d in (-1, 0, 1)}
    edges |= {ceiling - d for d in range(4)}
    windows = {(n - w, n) for n in edges for w in (1, 2, 1000)}
    windows |= {(n, n + w) for n in edges for w in (1, 2, 1000)}
    windows |= {(ceiling - w, ceiling) for w in (10 ** 6, 2 ** 25)}
    windows = [(lo, hi) for lo, hi in windows if 2 <= lo < hi <= ceiling]
    assert len(windows) > 1000
    base_primes(math.isqrt(ceiling))  # sieved once; each window slices it
    for lo, hi in windows:
        bases = base_primes(math.isqrt(hi))
        assert sieve_mod._higher_powers(lo, hi, bases) == exact_higher_powers(lo, hi, bases), (lo, hi)


def test_sieve_tiny():
    s = sieve_interval(2, 4)
    assert list(s.primes()) == [3]
    assert s.higher_powers == [(4, 2, 2)]


def test_sieve_matches_trial_division():
    # exact set equality against the naive oracle over chunks below 1e5
    rng = random.Random(1729)
    windows = [(2, 1000), (99_000, 100_000)]
    windows += [tuple(sorted(rng.sample(range(2, 10 ** 5), 2))) for _ in range(6)]
    for lo, hi in windows:
        if hi - lo < 2:
            hi = lo + 2
        s = sieve_interval(lo, hi)
        assert list(s.primes()) == trial_division_primes(lo, hi)


@st.composite
def sieve_windows(draw):
    """(lo, hi) with at most 4000 numbers, below about 2e5, for trial division.

    Covers wheel primes inside the window (lo <= 13), lo < sqrt(hi), and
    windows that start or end on a prime square or on k*30030 +- 1.  An
    anchor a becomes lo = a, lo = a - 1, hi = a or hi = a - 1, so lo and
    hi take both parities.
    """
    width = draw(st.integers(1, 4000))
    kind = draw(st.sampled_from(["wheel", "below_root", "square", "period", "any"]))
    if kind == "wheel":
        lo = draw(st.integers(2, 13))
        return lo, lo + width
    if kind == "below_root":
        hi = draw(st.integers(30, 1500))
        return draw(st.integers(2, math.isqrt(hi) - 1)), hi
    if kind == "any":
        lo = draw(st.integers(2, 2 * 10 ** 5))
        return lo, lo + width
    if kind == "square":
        anchor = draw(st.sampled_from([17, 19, 23, 97, 101, 211, 331, 443])) ** 2
    else:
        anchor = draw(st.integers(1, 6)) * WHEEL_PERIOD + draw(st.sampled_from([-1, 1]))
    shift = draw(st.sampled_from([0, 1]))
    if draw(st.booleans()):
        lo = anchor - shift
        return lo, lo + width
    hi = anchor - shift
    return max(2, hi - width), hi


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(sieve_windows(), st.sampled_from([2 ** 20, 4099, 2048, 1000, 777, 64, 65]))
def test_window_sieve_matches_trial_division(window, segment):
    # odd and even segment sizes move the segment starts through both
    # parities and through every phase of the presieve tile; segments of
    # 2048 numbers and more strike some primes by slice, all segments
    # strike the others in rounds
    lo, hi = window
    want = trial_division_primes(lo, hi)
    with mock.patch.object(sieve_mod, "SEGMENT_SIZE", segment):
        whole = sieve_interval(lo, hi)
        pieces = list(sieve_segments(lo, hi))
    assert whole.primes().tolist() == want
    assert np.concatenate([s.primes() for s in pieces]).tolist() == want
    assert [s.prime_count() for s in pieces] == [
        sum(s.lo < p <= s.hi for p in want) for s in pieces]
    # every n of the window, so every even n too, which the flags do not hold
    primes = set(want)
    assert [whole.is_prime(n) for n in range(lo + 1, hi + 1)] == [
        n in primes for n in range(lo + 1, hi + 1)]


def trial_division_odd_flags(lo, size):
    """Primality of the size odd numbers after lo, by division by every prime up to the root."""
    n = lo + 1 + (lo & 1) + 2 * np.arange(size, dtype=np.int64)
    prime = np.ones(size, dtype=bool)
    for p in trial_division_primes(1, math.isqrt(int(n[-1]))):
        prime &= (n % p != 0) | (n == p)
    return prime


@pytest.mark.parametrize("size", [1000, 4097, 65535, 65536, 65537, 2 ** 17])
@pytest.mark.parametrize("lo", [2, 4, 10, 12, 4_000_001, 10 ** 7])
def test_segment_flags_on_both_sides_of_the_split_crossover(lo, size):
    # below 65536 odd numbers the split is isqrt(SLICE_HITS * size), from
    # there on 2 * size // SLICE_HITS + 1; lo below 13 puts wheel primes
    # in the segment, and lo >= 4e6 puts primes on both sides of the split
    flags = np.empty(size, dtype=bool)
    bases = base_primes(math.isqrt(lo + 2 * size + 1))
    sieve_mod._segment_flags(flags, lo, bases)
    assert np.array_equal(flags, trial_division_odd_flags(lo, size))


def test_segment_memory_is_bounded_by_the_segment():
    # the strikes of one segment hold O(1) arrays over the base primes and
    # nothing over the segment's hits; the base-prime cache is grown first
    lo, hi = 10 ** 12, 10 ** 12 + sieve_mod.SEGMENT_SIZE
    bases = base_primes(math.isqrt(hi))
    tracemalloc.start()
    try:
        sieve_interval(lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sieve_mod.SEGMENT_SIZE + 48 * len(bases)


def test_prime_powers_match_factoring():
    s = sieve_interval(2, 2000)
    got = {(n, p, k) for n, p, k in s.prime_powers()}
    want = set()
    for n in range(3, 2001):
        pk = naive_mangoldt_pk(n)
        if pk:
            want.add((n, pk[0], pk[1]))
    assert got == want


def test_sieve_rejects_bad_windows():
    with pytest.raises(ValueError):
        sieve_interval(10, 10)
    with pytest.raises(ValueError):
        sieve_interval(1, 10)
    with pytest.raises(SieveCeilingExceeded):
        sieve_interval(2, 2 ** 49)


def test_mangoldt_sum_100_50():
    # frozen from direct enumeration: ten prime logs + log 2 + log 3
    assert abs(mangoldt_sum_interval(100, 50) - 44.55993043693902) < 1e-9


def test_mangoldt_sum_tiny():
    assert abs(mangoldt_sum_interval(4, 2) - math.log(6)) < 1e-12


def test_mangoldt_sum_monotone_in_Y():
    values = [mangoldt_sum_interval(10 ** 4, Y) for Y in (100, 500, 1000, 5000)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_mangoldt_sum_tracks_window_length():
    X, Y = 10 ** 7, 10 ** 5
    assert abs(mangoldt_sum_interval(X, Y) - Y) <= 0.05 * Y


def test_small_tables_spot_values():
    t = small_tables(100)
    assert t.mu[1] == 1 and t.mu[4] == 0 and t.mu[6] == 1
    assert t.tau[12] == 6
    assert t.lam[8] == math.log(2) and t.lam[81] == math.log(3)
    assert t.lam[0] == t.lam[1] == t.lam[12] == 0.0
    assert len(t.mu) == len(t.tau) == len(t.lam) == 101


@pytest.mark.parametrize("N", [1, 2, 3, 4, 8, 9, 10, 3000])
def test_small_tables_match_naive(N):
    t = small_tables(N)
    assert t.limit == N
    assert (t.mu.dtype, t.tau.dtype, t.lam.dtype) == (np.int8, np.int32, np.float64)
    assert t.mu[0] == t.tau[0] == t.lam[0] == 0
    for n in range(1, N + 1):
        assert t.mu[n] == naive_mu(n)
        assert t.tau[n] == naive_tau(n)
        pk = naive_mangoldt_pk(n)
        assert t.lam[n] == (math.log(pk[0]) if pk else 0.0)


def test_moebius_divisor_sum_identity():
    # sum_{d|n} mu(d) = [n = 1], spot-checked
    t = small_tables(500)
    for n in range(1, 501):
        total = sum(int(t.mu[d]) for d in divisors(n))
        assert total == (1 if n == 1 else 0)


def test_primes_small_angle_delta_max():
    # delta = 1/2 counts every prime: ||.|| <= 1/2 with equality impossible
    s = sieve_interval(50, 100)
    oracle = build_angle_oracle(SQRT2, n_max=100)
    res = primes_with_small_angle(s, oracle, 0.5)
    assert res.count == 10
    assert res.boundary_count == 0


def test_primes_small_angle_hand_checked():
    # ||p sqrt2|| < 0.1 for p in (2, 30]: exactly p = 5, 17, 29
    s = sieve_interval(2, 30)
    oracle = build_angle_oracle(SQRT2, n_max=30)
    res = primes_with_small_angle(s, oracle, 0.1)
    assert res.count == 3
    primes = s.primes()
    assert primes[oracle.verdicts(primes, oracle.dists(primes), 0.1)[0]].tolist() == [5, 17, 29]
    assert res.boundary_count == 0
    # at delta = 1/2 every prime in (2, 100] counts; the endpoint 2 is excluded
    res = primes_with_small_angle(sieve_interval(2, 100), build_angle_oracle(SQRT2, n_max=100), 0.5)
    assert res.count == 24


def test_primes_small_angle_equidistribution():
    # desk-scale Corollary-2 shape: within 15% of 2*delta*Y/log(X)
    X, Y, delta = 10 ** 6, 10 ** 5, 0.05
    s = sieve_interval(X - Y, X)
    oracle = build_angle_oracle(SQRT2, n_max=X)
    res = primes_with_small_angle(s, oracle, delta)
    predicted = 2 * delta * Y / math.log(X)
    assert abs(res.count - predicted) <= 0.15 * predicted
    assert res.boundary_count == 0


def test_all_integer_equidistribution():
    # Weyl equidistribution at desk scale: for every delta tested, the count
    # of n in (lo, hi] with ||n sqrt2|| < delta is within 5% of 2*delta*(hi-lo)
    lo, hi = 10 ** 5, 10 ** 5 + 2 * 10 ** 4
    oracle = build_angle_oracle(SQRT2, n_max=hi)
    for delta in (0.05, 0.1, 0.25):
        angles = oracle.dists(np.arange(lo + 1, hi + 1))
        count = int(np.count_nonzero(angles < delta))
        expected = 2 * delta * (hi - lo)
        assert abs(count - expected) <= 0.05 * expected


def test_oracle_window_guard():
    s = sieve_interval(50, 100)
    oracle = build_angle_oracle(SQRT2, n_max=80)
    with pytest.raises(ValueError):
        primes_with_small_angle(s, oracle, 0.1)


def test_sieve_multi_segment_window():
    # window longer than one 2^20 segment; counts frozen from an
    # independent one-shot sieve
    s = sieve_interval(10 ** 6, 2_200_000)
    assert s.prime_count() == 84164
    full = sieve_interval(2, 2_000_000)
    assert full.prime_count() == 148932  # pi(2e6) = 148933 minus the prime 2
    # spot-check flags around the segment boundary at lo + 2^20
    boundary = 10 ** 6 + 2 ** 20
    for n in range(boundary - 3, boundary + 4):
        assert s.is_prime(n) == all(n % p for p in range(2, int(n ** 0.5) + 1))

