"""Segmented sieve, arithmetic tables, and small-angle prime counts."""

import math
import random

import numpy as np
import pytest

from primeangle.alpha import AlphaSpec, build_angle_oracle
from primeangle.reference import (
    divisors,
    naive_mangoldt_pk,
    naive_mu,
    naive_tau,
    trial_division_primes,
)
from primeangle.sieve import (
    SieveCeilingExceeded,
    mangoldt_sum_interval,
    primes_with_small_angle,
    sieve_interval,
    small_tables,
)

SQRT2 = AlphaSpec.sqrt(2)


def test_sieve_50_100():
    s = sieve_interval(50, 100)
    assert list(s.primes()) == [53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
    assert s.higher_powers == [(64, 2, 6), (81, 3, 4)]


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
    assert abs(t.mangoldt(8) - math.log(2)) < 1e-15
    assert t.mangoldt(12) == 0.0
    assert t.mangoldt_pk(81) == (3, 4)
    assert t.mangoldt_pk(1) is None


def test_small_tables_match_naive():
    t = small_tables(3000)
    for n in range(1, 3001):
        assert t.mu[n] == naive_mu(n)
        assert t.tau[n] == naive_tau(n)
        assert t.mangoldt_pk(n) == naive_mangoldt_pk(n)


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
    assert [p for p, _ in res.sample] == [5, 17, 29]
    assert res.boundary_count == 0


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
        _, angles = oracle.dists(np.arange(lo + 1, hi + 1))
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


def test_small_angle_sample_cap():
    s = sieve_interval(2, 100)
    oracle = build_angle_oracle(SQRT2, n_max=100)
    res = primes_with_small_angle(s, oracle, 0.5, sample_cap=3)
    assert len(res.sample) == 3
    assert res.count == 24  # every prime in (2, 100]; the endpoint 2 is excluded
