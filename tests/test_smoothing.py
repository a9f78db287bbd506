"""Periodized Gaussian: direct form, Fourier form, certified tail."""

import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeangle.alpha import AlphaSpec
from primeangle.config import ExperimentConfig
import primeangle.smoothing as smoothing_mod
from primeangle.smoothing import (
    ARRAY_BLOCK,
    DIRECT_TERMS,
    MIN_DIRECT_DELTA,
    build_kernel,
    check_direct_delta,
    f_direct,
    f_direct_array,
    f_fourier,
    f_fourier_array,
    truncation_bound,
    truncation_bound_log10,
)
from primeangle.vaughan import SumContext


def test_f_direct_at_zero_wide():
    # 1 + 2 e^{-4 pi} + 2 e^{-16 pi} + ... (frozen from direct summation)
    assert abs(f_direct(0.0, 0.5) - 1.0000069746847124) < 1e-15


def test_f_direct_at_half_narrow():
    # leading term 2 e^{-25 pi} is itself < 1e-30
    assert f_direct(0.5, 0.1) < 1e-30


def test_f_direct_lower_bound_at_delta():
    # single nearest-integer term already gives e^{-pi} at ||x|| = delta
    for delta in (0.05, 0.1, 0.3, 0.5):
        assert f_direct(delta, delta) >= math.exp(-math.pi)


def test_f_direct_periodic_and_even():
    rng = random.Random(1729)
    for _ in range(1000):
        x = rng.uniform(-50, 50)
        delta = rng.choice([0.05, 0.1, 0.25, 0.5])
        assert abs(f_direct(x, delta) - f_direct(x + 1, delta)) <= 1e-14
        assert abs(f_direct(x, delta) - f_direct(-x, delta)) <= 1e-14


def test_indicator_imitation_properties():
    # (i) >= e^{-pi} on ||x|| <= delta; (ii) max at 0, <= 1 + 3 e^{-pi/delta^2};
    # (iii) <= 2 exp(-pi T^2) once ||x|| >= T delta, T >= 2
    rng = random.Random(1729)
    for delta in (0.05, 0.1, 0.2, 0.5):
        peak = f_direct(0.0, delta)
        assert peak <= 1 + 3 * math.exp(-math.pi / delta ** 2)
        for _ in range(500):
            x = rng.uniform(0, 0.5)
            v = f_direct(x, delta)
            assert v <= peak + 1e-15
            if x <= delta:
                assert v >= math.exp(-math.pi)
            for T in (2.0, 3.0):
                if x >= T * delta:
                    assert v <= 2 * math.exp(-math.pi * T * T)


def test_default_direct_terms_tail():
    # dropped tail below 1e-30: compare f_direct against the sum at radius + 8
    for delta in (0.05, 0.1, 0.5):
        wide, inv = DIRECT_TERMS + 8, math.pi / (delta * delta)
        for x in (0.0, 0.25, 0.49):  # round(x) = 0
            want = math.fsum(math.exp(-inv * (x - n) * (x - n)) for n in range(-wide, wide + 1))
            assert abs(f_direct(x, delta) - want) < 1e-30


def all_shifts_array(xs, delta):
    """The direct form over every shift |s| <= DIRECT_TERMS, in increasing order.

    Each term is formed at x - (round(x) + s), exact below 2^52.
    """
    terms, inv = DIRECT_TERMS, math.pi / (delta * delta)
    center, total = np.rint(xs), np.zeros_like(xs)
    for shift in range(-terms, terms + 1):
        d = xs - (center + shift)
        total += np.exp(-inv * d * d)
    return total


def all_shifts_scalar(x, delta):
    terms, inv, center = DIRECT_TERMS, math.pi / (delta * delta), round(x)
    return math.fsum(math.exp(-inv * (x - n) * (x - n))
                     for n in range(center - terms, center + terms + 1))


def shift_count(delta, ordered=False):
    return len(smoothing_mod._direct_shifts(delta, ordered))


def switch_at(count, n):
    """(below, above): adjacent floats in [2^-511, 1/2] with count(below) < n <= count(above)."""
    def as_float(bits):
        return struct.unpack("<d", struct.pack("<q", bits))[0]
    lo, hi = (struct.unpack("<q", struct.pack("<d", d))[0] for d in (MIN_DIRECT_DELTA, 0.5))
    assert count(as_float(lo)) < n <= count(as_float(hi))
    while hi - lo > 1:    # positive floats are ordered as their bits
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(as_float(mid)) < n else (lo, mid)
    return as_float(lo), as_float(hi)


def shift_switches():
    """(ordered, below, above): adjacent floats around each delta where f_direct
    (ordered False) gains shifts +-k, k = 1, 2, 3, or f_direct_array (True) +-1 and +-2."""
    return ([(False, *switch_at(shift_count, 2 * k + 1)) for k in (1, 2, 3)]
            + [(True, *switch_at(lambda d: shift_count(d, True), n)) for n in (3, 5)])


def all_shifts_at_r(xs, delta):
    """all_shifts_array at the exact r = x - round(x), as the direct forms evaluate it."""
    with np.errstate(over="ignore"):    # -pi / delta^2 * (r - s) may overflow to -inf
        return all_shifts_array(xs - np.rint(xs), delta)


def test_direct_form_drops_only_shifts_that_underflow():
    # f_direct drops shifts +-k below the switch, whose terms are all +0.0
    # there; f_direct_array also drops the shifts +-(S+1) whose terms are
    # below 2^-55 of those of +-S.  Either way the sum over the kept shifts
    # is the sum over all seven, bit for bit
    deltas = (0.05, 0.1, 0.16, 0.17, 0.45)
    assert [shift_count(d) for d in deltas] == [3, 5, 5, 7, 7]
    assert [shift_count(d, ordered=True) for d in deltas] == [3, 3, 3, 3, 5]
    rng = random.Random(11)
    xs = [0.5, -0.5, 0.0, -0.0, 1.5, -2.5, 2.0 ** 51 + 0.5]
    xs += [rng.uniform(-0.5, 0.5) for _ in range(300)]
    xs += [rng.uniform(-1e6, 1e6) for _ in range(100)]
    switches = shift_switches()
    assert 0.4059 < switches[-1][1] < switches[-1][2] < 0.4060
    for ordered, below, above in switches:
        assert shift_count(below, ordered) + 2 == shift_count(above, ordered)
        for delta in (below, above):
            got, want = f_direct_array(np.array(xs), delta), all_shifts_array(np.array(xs), delta)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
            assert [f_direct(x, delta) for x in xs] == [all_shifts_scalar(x, delta) for x in xs]


SWITCH_DELTAS = [delta for _, below, above in shift_switches() for delta in (below, above)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.one_of(st.floats(-511.0, -1.0).map(lambda e: 2.0 ** e), st.sampled_from(SWITCH_DELTAS)),
       st.lists(st.one_of(st.sampled_from([0.5, -0.5, 0.0, -0.0, 2.0 ** 51 + 0.5, 1e300, -1e300]),
                          st.floats(-0.5, 0.5), st.floats(-1e6, 1e6), st.floats(-1e300, 1e300)),
                min_size=1, max_size=40))
def test_direct_array_is_the_ordered_sum_over_every_shift(delta, xs):
    # the shifts f_direct_array leaves out never move a rounded value
    xs = np.array(xs)
    got, want = f_direct_array(xs, delta), all_shifts_at_r(xs, delta)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


def test_direct_form_beyond_two_to_the_53_is_the_weight_at_zero():
    # there x - (round(x) + s) would round to x - round(x) = 0 for every
    # shift s, summing 2 * terms + 1 copies of the peak
    huge = [2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 53), 2.0 ** 60, 1e300, -1e300]
    for delta in (0.05, 0.3, 0.5):
        peak = f_direct(0.0, delta)
        assert [f_direct(x, delta) for x in huge] == [peak] * len(huge)
        assert f_direct_array(np.array(huge + [0.0]), delta).tolist() == [
            f_direct_array(np.array([0.0]), delta)[0]] * (len(huge) + 1)
        # below 2^52 a half stays a half
        assert f_direct(2.0 ** 51 + 0.5, delta) == f_direct(0.5, delta)
        assert f_direct_array(np.array([2.0 ** 51 + 0.5, 0.5]), delta).tolist() == [
            f_direct_array(np.array([0.5]), delta)[0]] * 2


def test_direct_array_is_the_same_in_blocks_and_alone():
    # the terms run ARRAY_BLOCK values at a time; no value depends on its block
    rng = np.random.default_rng(5)
    xs = rng.uniform(-3.0, 3.0, 2 * ARRAY_BLOCK + 3)
    for delta in (0.05, 0.45):
        whole = f_direct_array(xs, delta)
        parts = np.concatenate([f_direct_array(xs[i: i + 1001], delta)
                                for i in range(0, xs.size, 1001)])
        assert whole.view(np.int64).tolist() == parts.view(np.int64).tolist()
        assert whole.view(np.int64).tolist() == all_shifts_array(xs, delta).view(np.int64).tolist()
    assert f_direct_array(np.array([]), 0.3).shape == (0,)


def test_truncation_bound_closed_form():
    # delta=0.5, L=10: 2*0.5*e^{-25 pi}/(1 - e^{-5.25 pi}) ~ 7.77e-35
    got = truncation_bound(0.5, 10)
    assert abs(got - 7.773045033078633e-35) < 1e-44


def test_truncation_bound_underflow_flagged():
    k = build_kernel(0.1, 200)
    assert k.tail_underflow
    assert k.tail_bound == 0.0
    assert k.tail_log10 < -500


def test_truncation_bound_monotone():
    for delta in (0.05, 0.2, 0.5):
        values = [truncation_bound_log10(delta, L) for L in range(1, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("delta,L", [(0.5, 50), (0.1, 200), (0.05, 600)])
def test_poisson_identity_on_grid(delta, L):
    # both sides computed independently; sup over a dense grid bounded by
    # the certified tail plus float noise
    kernel = build_kernel(delta, L)
    worst = 0.0
    for i in range(2001):
        x = -1.0 + 2 * i / 2000
        worst = max(worst, abs(f_direct(x, delta) - f_fourier(x, kernel)))
    assert worst <= kernel.tail_bound + 1e-12
    # the array forms, as criterion 2 compares them
    xs = -1.0 + 2 * np.arange(2001) / 2000
    worst = np.abs(f_direct_array(xs, delta) - f_fourier_array(xs, kernel)).max()
    assert worst <= kernel.tail_bound + 1e-12


@pytest.mark.parametrize("delta,L", [(0.5, 50), (0.05, 600), (0.01, 2 ** 16),
                                     (0.5, 1), (0.4, 2), (0.3, 3), (0.1, 17), (0.05, 601)])
def test_fourier_array_matches_the_scalar_form_whatever_the_block(delta, L):
    # each row is reduced on its own: a value is the same bit for bit in a
    # block of many rows and alone, and within a few ulps of f_fourier's
    # dot product (L = 1, 2, 3 take a single baby step; 17 and 601 leave
    # most of the last giant-step row as zero padding)
    kernel = build_kernel(delta, L)
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, 2000 if L < 2 ** 15 else 20)
    together = f_fourier_array(xs, kernel)
    assert together.tolist() == [f_fourier_array(xs[i:i + 1], kernel)[0] for i in range(xs.size)]
    scalar = np.array([f_fourier(x, kernel) for x in xs])
    assert np.abs(together - scalar).max() <= 8 * np.finfo(float).eps


def test_fourier_at_zero_matches_direct():
    kernel = build_kernel(0.5, 50)
    assert abs(f_fourier(0.0, kernel) - 1.0000069746847124) < 1e-12


def test_experiment_kernel_length():
    config = ExperimentConfig(X=10 ** 6, Y=10 ** 5, delta=0.45, eps=0.01,
                              alpha=AlphaSpec.sqrt(2))
    k = SumContext(config).kernel
    assert k.L == config.L
    assert k.L == math.ceil((10 ** 6) ** 0.01 / 0.45)
    assert k.L >= (10 ** 6) ** 0.01 / 0.45


def test_kernel_coefficients_decreasing():
    k = build_kernel(0.3, 30)
    assert k.coeffs.shape == (30,) and k.coeffs[0] <= 1.0
    for ell in range(1, 30):
        # coeffs[l - 1] = c(l) = exp(-pi delta^2 l^2)
        assert k.coeffs[ell - 1] == pytest.approx(math.exp(-math.pi * 0.09 * ell * ell),
                                                  rel=1e-14)
        assert 0 < k.coeffs[ell] < k.coeffs[ell - 1]


def test_bad_args_rejected():
    with pytest.raises(ValueError):
        f_direct(0.1, 0.7)
    with pytest.raises(ValueError):
        build_kernel(0.1, 0)
    with pytest.raises(ValueError):
        truncation_bound(0.1, 0)


def test_f_fourier_matches_the_harmonic_formula_bit_for_bit():
    for delta, L in ((0.5, 50), (0.05, 600)):
        kernel = build_kernel(delta, L)
        for i in range(0, 10 ** 4, 37):
            x = i / 10 ** 4
            ang = (2.0 * np.pi * x) * np.arange(1, L + 1)
            cosine_sum = 2.0 * float(np.dot(kernel.coeffs, np.cos(ang)))
            assert f_fourier(x, kernel) == delta * (1.0 + cosine_sum)


def test_min_direct_delta_is_the_least_with_a_normal_square():
    tiny = sys.float_info.min
    assert MIN_DIRECT_DELTA * MIN_DIRECT_DELTA >= tiny
    below = math.nextafter(MIN_DIRECT_DELTA, 0.0)
    assert below * below < tiny
    check_direct_delta(MIN_DIRECT_DELTA)
    assert math.isfinite(f_direct(0.25, MIN_DIRECT_DELTA))
    for bad in (below, 0.0, -0.1, 0.5000001, math.nan):
        with pytest.raises(ValueError, match="delta must lie in"):
            f_direct(0.25, bad)
