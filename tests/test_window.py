"""Streaming, vectorised window runners against a scalar per-item oracle.

The scalar oracle walks every n of the window with trial division
(reference.naive_mangoldt_pk), AngleOracle.dist, classify_against_threshold
and f_direct, one item at a time; the runners sieve segments and classify
and weight whole segments with numpy.
"""

import inspect
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import primeangle.alpha as alpha_mod
import primeangle.sieve as sieve_mod
from primeangle.alpha import (
    AlphaSpec,
    AngleOracle,
    build_angle_oracle,
    classify_against_threshold,
    parse_alpha,
)
from primeangle.acceptance import ALPHA_PANEL
from primeangle.config import ExperimentConfig
from primeangle.experiments import run_prime_count, run_smoothed_sum
from primeangle.reference import naive_mangoldt_pk
from primeangle.sieve import (
    ExactSum,
    IntervalSieve,
    mangoldt_sum_interval,
    primes_with_small_angle,
    sieve_interval,
    sieve_segments,
)
from primeangle.smoothing import f_direct, f_direct_array

SQRT2 = AlphaSpec.sqrt(2)
PANEL = [SQRT2, AlphaSpec.golden(), parse_alpha("sqrt:7"), parse_alpha("cf:0;;1,2,3")]
SQRT10 = parse_alpha("sqrt:10")


def small_angle_count(sieve, oracle, delta):
    """primes_with_small_angle on the window's primes and dists, as the window pass calls it."""
    primes = sieve.primes()
    return primes_with_small_angle(sieve, oracle, delta, (primes, oracle.dists(primes)))


def scalar_window(X, Y, delta, alpha, err_target=2.0 ** -40):
    """(count, boundary, interval_primes, value, psi) one item at a time."""
    oracle = build_angle_oracle(alpha, n_max=X, err_target=err_target)
    count = boundary = primes = 0
    value_terms, psi_terms = [], []
    for n in range(X - Y + 1, X + 1):
        pk = naive_mangoldt_pk(n)
        if pk is None:
            continue
        p, k = pk
        angle, err = oracle.dist(n)
        logp = math.log(p)
        value_terms.append(logp * f_direct(angle, delta))
        psi_terms.append(logp)
        if k == 1:
            primes += 1
            verdict = classify_against_threshold(angle, err, delta)
            count += verdict == "below"
            boundary += verdict == "boundary"
    return count, boundary, primes, math.fsum(value_terms), math.fsum(psi_terms)


def window_config(X, Y, delta, alpha, **kw):
    return ExperimentConfig(X=X, Y=Y, delta=delta, eps=0.01, alpha=alpha, **kw)


def random_windows():
    rng = random.Random(20251)
    windows = [
        (3000, 2990),                  # lo = 10 < sqrt(hi): primes <= sqrt(hi) in the window
        (500, 498),                    # lo = 2
        (1009 ** 2, 1009 ** 2 - 997 ** 2),  # both ends on prime squares
        (101 ** 2, 101 ** 2 - 97 ** 2),
    ]
    for _ in range(4):
        X = rng.randrange(10 ** 4, 2 * 10 ** 6)
        windows.append((X, rng.randrange(2000, 12000)))
    return windows


def test_runners_match_scalar_oracle(monkeypatch):
    rng = random.Random(20251)
    for X, Y in random_windows():
        alpha = rng.choice(PANEL)
        delta = rng.choice([0.05, 0.1, 0.45, 0.5])
        count, boundary, primes, value, psi = scalar_window(X, Y, delta, alpha)
        config = window_config(X, Y, delta, alpha)
        # small segments make every window cross several segment boundaries
        for segment in (2 ** 20, 1000, 4099):
            monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", segment)
            counted = run_prime_count(config, force=True)
            assert counted.value == count
            assert counted.bound_terms["boundary_count"] == boundary
            assert counted.bound_terms["interval_primes"] == primes
            summed = run_smoothed_sum(config, force=True)
            assert summed.value == pytest.approx(value, rel=1e-12)
            assert summed.bound_terms["psi_window"] == pytest.approx(psi, rel=1e-12)


def test_smoothed_sum_independent_of_segment_size(monkeypatch):
    config = window_config(2 * 10 ** 6, 3 * 10 ** 4, 0.1, SQRT2)
    whole = run_smoothed_sum(config, force=True)
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 777)
    pieces = run_smoothed_sum(config, force=True)
    assert pieces.value == whole.value
    assert pieces.bound_terms["psi_window"] == whole.bound_terms["psi_window"]


def test_smoothed_sum_memory_does_not_grow_with_the_segments(monkeypatch):
    # one segment's arrays are held at a time: six segments peak no higher
    # than two, but for the slack of segments that hold a few more primes
    # than others (a segment of 2^16 numbers near 1e9 holds about 3,200
    # primes, each in five float64 or int64 arrays)
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 2 ** 16)
    slack = sieve_mod.SEGMENT_SIZE // 2

    def peak(segments):
        config = window_config(10 ** 9, segments * sieve_mod.SEGMENT_SIZE, 0.45, SQRT2)
        run_smoothed_sum(config, force=True)  # the base-prime cache is grown first
        tracemalloc.start()
        try:
            run_smoothed_sum(config, force=True)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(6) <= peak(2) + slack


def test_psi_window_is_mangoldt_sum_interval(monkeypatch):
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 5000)
    X, Y = 10 ** 6 + 17, 40_000
    report = run_smoothed_sum(window_config(X, Y, 0.45, SQRT2), force=True)
    psi = mangoldt_sum_interval(X, Y)
    assert report.bound_terms["psi_window"] == pytest.approx(psi, rel=1e-12)
    assert report.bound_terms["psi_window"] == psi  # one accumulation, same terms


def test_sieve_segments_tile_the_window(monkeypatch):
    monkeypatch.setattr(sieve_mod, "SEGMENT_SIZE", 1000)
    lo, hi = 97 ** 2 - 1, 101 ** 2 + 3500
    whole = sieve_interval(lo, hi)
    pieces = list(sieve_segments(lo, hi))
    assert [s.lo for s in pieces] == list(range(lo, hi, 1000))
    assert pieces[-1].hi == hi
    assert np.concatenate([s.primes() for s in pieces]).tolist() == whole.primes().tolist()
    assert sum((s.higher_powers for s in pieces), []) == whole.higher_powers
    with pytest.raises(ValueError):
        sieve_segments(1, 10)
    with pytest.raises(ValueError, match="strikes carried to"):  # not where they stand
        sieve_interval(lo + 1000, lo + 2000, sieve_mod._Strikes(lo, hi))


@pytest.mark.parametrize("n_max,err_target", [
    (10 ** 6, 2.0 ** -40),       # Q of 31 to 33 bits
    (2 ** 48, 2.0 ** -40),       # the sieve ceiling: Q of 45 to 47 bits
    (2 ** 40, 2.0 ** -60),       # Q of 51 to 53 bits
    (2 ** 40, 2.0 ** -61),       # Q on both sides of INT64_EXACT_Q
    (10 ** 6, 0.2),              # n_max >= Q: n is reduced mod Q first
    (52_000, 2.0 ** -80),        # the sqrt:10 bounds anchor at X = 4000: a 53-bit Q
    (10 ** 12, 2.0 ** -100),     # Q > 2^64: object arrays
])
def test_residues_are_exact(n_max, err_target):
    rng = random.Random(n_max)
    for spec in [SQRT10] if n_max == 52_000 else PANEL:
        oracle = build_angle_oracle(spec, n_max=n_max, err_target=err_target)
        Q, P = oracle.anchor.q, oracle.residue
        if err_target == 2.0 ** -100:
            assert Q > 2 ** 64
        if err_target == 0.2:
            assert Q <= n_max
        if spec is SQRT10:
            assert 2 ** 52 < Q < alpha_mod.INT64_EXACT_Q
        edges = [0, 1, -1, n_max, -n_max] + ([Q - 1, Q, Q + 1, -Q] if Q <= n_max else [])
        ns = [rng.randrange(-n_max, n_max + 1) for _ in range(300)] + edges
        t = oracle.residues(np.array(ns, dtype=np.int64))
        assert [int(v) for v in t] == [n * P % Q for n in ns]
        x = oracle.dists(np.array(ns, dtype=np.int64))
        for n, xi in zip(ns, x):
            value, _ = oracle.dist(n)
            assert float(xi) == value == min(n * P % Q, Q - n * P % Q) / Q


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.sampled_from(ALPHA_PANEL), st.integers(0, 62),
       st.one_of(st.integers(2, 70), st.integers(48, 56)), st.data())
def test_residues_match_python_integers(spec, k, q_bits, data):
    # n_max of k + 1 bits and err_target 2^-bits with bits = 2 q_bits - k
    # put Q just above 2^q_bits; half the draws sit at 48-56 bits, where
    # int64 residues give way to object arrays at INT64_EXACT_Q
    n_max = data.draw(st.integers(2 ** k, 2 ** (k + 1) - 1))
    oracle = build_angle_oracle(spec, n_max=n_max, err_target=2.0 ** -max(3, 2 * q_bits - k))
    Q, P = oracle.anchor.q, oracle.residue
    ns = data.draw(st.lists(st.integers(-n_max, n_max), max_size=50)) + [n_max, -n_max]
    t = oracle.residues(np.array(ns, dtype=np.int64))
    assert t.dtype == (np.int64 if Q < alpha_mod.INT64_EXACT_Q else object)
    assert [int(v) for v in t] == [n * P % Q for n in ns]


def test_residue_paths_cover_both_dtypes():
    small = build_angle_oracle(SQRT2, n_max=2 ** 40, err_target=2.0 ** -60)
    assert 2 ** 51 < small.anchor.q < alpha_mod.INT64_EXACT_Q
    assert small.residues(np.array([5])).dtype == np.int64
    large = build_angle_oracle(SQRT2, n_max=10 ** 12, err_target=2.0 ** -100)
    assert large.residues(np.array([5])).dtype == object
    with pytest.raises(ValueError):
        small.residues(np.array([2 ** 40 + 1]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.sampled_from(ALPHA_PANEL + (parse_alpha("cf:1;2,3;4,5"),)), st.integers(1, 3000),
       st.booleans())
def test_three_distance_theorem_on_exact_residues(spec, N, wide):
    # the gaps between the sorted {n*P/Q}, n <= N, and 0 on the circle take
    # at most three values, and the largest is the sum of the other two when
    # there are three (Sos 1958, Swierczkowski 1959); a wide anchor
    # (Q >= 2^53) takes the object path
    oracle = build_angle_oracle(spec, n_max=N, err_target=2.0 ** (-140 if wide else -40))
    Q = oracle.anchor.q
    t = oracle.residues(np.arange(1, N + 1))
    assert (t.dtype == object) == wide == (Q >= alpha_mod.INT64_EXACT_Q)
    points = [0] + sorted(int(v) for v in t) + [Q]
    gaps = sorted({b - a for a, b in zip(points, points[1:])})
    assert len(gaps) <= 3 and gaps[0] > 0
    if len(gaps) == 3:
        assert gaps[2] == gaps[0] + gaps[1]


@pytest.mark.parametrize("bad,error", [
    (np.array([-2 ** 63]), ValueError),              # np.abs(-2^63) wraps to -2^63
    (np.array([5, -(2 ** 40) - 1]), ValueError),
    (np.array([2 ** 64 - 1], dtype=np.uint64), ValueError),
    (np.array([2.7]), TypeError),
    (np.array([2.0]), TypeError),
    (np.array([True, False]), TypeError),
    (np.array([5], dtype=object), TypeError),
])
def test_residues_reject_what_they_cannot_certify(bad, error):
    for err_target in (2.0 ** -60, 2.0 ** -100):     # int64 and object paths
        oracle = build_angle_oracle(SQRT2, n_max=2 ** 40, err_target=err_target)
        with pytest.raises(error):
            oracle.residues(bad)


def test_residues_take_every_integer_dtype():
    # n_max >= Q: each dtype is reduced mod Q in its own signedness; with
    # P/Q > 1/2 (golden) an unreduced 2^64 - 1 would push est past 2^63
    for spec in PANEL:
        oracle = build_angle_oracle(spec, n_max=2 ** 64, err_target=0.2)
        Q, P = oracle.anchor.q, oracle.residue
        for ns in (np.array([2 ** 64 - 1, 2 ** 63, 7], dtype=np.uint64),
                   np.array([-2 ** 31, 2 ** 31 - 1, 0], dtype=np.int32),
                   np.array([255, 3], dtype=np.uint8)):
            assert [int(v) for v in oracle.residues(ns)] == [n * P % Q for n in ns.tolist()]


def exact_verdict(oracle: AngleOracle, n: int, delta: float) -> str:
    Q = oracle.anchor.q
    t = n * oracle.residue % Q
    centre = Fraction(min(t, Q - t), Q)
    radius = Fraction(oracle.n_max, Q * Q)
    if centre + radius < Fraction(delta):
        return "below"
    if centre - radius >= Fraction(delta):
        return "above"
    return "boundary"


def mp_angle(spec: AlphaSpec, n: int):
    """||n*alpha|| at 100 digits, alpha read from its surd."""
    with mp.workdps(100):
        x = n * (spec.a + spec.b * mp.sqrt(spec.d)) / spec.c
        return abs(x - mp.nint(x))


def true_below(spec: AlphaSpec, n: int, delta) -> bool:
    """||n*alpha|| < delta (a float or a Fraction), from alpha at 100 digits."""
    delta = Fraction(delta)
    with mp.workdps(100):
        return mp_angle(spec, n) < mp.mpf(delta.numerator) / delta.denominator


def test_threshold_within_one_ulp_is_decided_in_alpha(monkeypatch):
    # delta one ulp around m/Q + ebound, or around ||p*alpha|| itself: the
    # float filter cannot decide, so the verdict comes from _below_in_alpha
    # and matches alpha at 100 digits
    calls = []
    decide = alpha_mod._below_in_alpha

    def spy(alpha, anchor, ns, delta):
        calls.append(list(ns))
        return decide(alpha, anchor, ns, delta)

    monkeypatch.setattr(alpha_mod, "_below_in_alpha", spy)
    X = 10 ** 6
    oracle = build_angle_oracle(SQRT2, n_max=X)
    Q = oracle.anchor.q
    disagreements = 0
    for p in sieve_interval(X - 2000, X).primes().tolist()[:40]:
        t = p * oracle.residue % Q
        upper = float(Fraction(min(t, Q - t), Q) + Fraction(oracle.n_max, Q * Q))
        for centre in (upper, float(mp_angle(SQRT2, p))):
            for delta in (np.nextafter(centre, 0.0), centre, np.nextafter(centre, 1.0)):
                delta = float(delta)
                if not 0.0 < delta <= 0.5:
                    continue
                calls.clear()
                res = small_angle_count(sieve_interval(p - 1, p), oracle, delta)
                assert calls == [[p]]
                assert (res.count, res.boundary_count) == (true_below(SQRT2, p, delta), 1)
                disagreements += (classify_against_threshold(*oracle.dist(p), delta)
                                  != exact_verdict(oracle, p, delta))
    # the rounded float comparison gets some of these wrong; the runners do not
    assert disagreements > 0
    # away from the thresholds the filter decides every prime
    calls.clear()
    assert small_angle_count(sieve_interval(X - 2000, X), oracle, 0.1).boundary_count == 0
    assert calls == []


def test_float_filter_never_contradicts_the_exact_verdict():
    rng = random.Random(7)
    X = 10 ** 7
    oracle = build_angle_oracle(PANEL[1], n_max=X)
    ns = np.array(sorted(rng.sample(range(1, X + 1), 3000)), dtype=np.int64)
    for delta in (0.05, 0.2, 0.5):
        below, exact = oracle.verdicts(ns, oracle.dists(ns), delta)
        for n, b, s in zip(ns.tolist(), below, exact):
            assert bool(b) == true_below(PANEL[1], n, delta), n
            if not s:   # a filter verdict is the certified one
                assert exact_verdict(oracle, n, delta) == ("below" if b else "above"), n


def test_verdicts_at_a_half_and_at_zero():
    # ||n*alpha|| < 1/2 for every n; on a coarse anchor n*P/Q can lie across
    # a half-integer from n*alpha, so the nearest k is round(n*P/Q) +- 1.
    # ||0*alpha|| = 0 is below any delta, even one below ebound
    for spec in PANEL:
        oracle = build_angle_oracle(spec, n_max=2000, err_target=0.2)
        ns = np.arange(-2000, 2001)
        below, exact = oracle.verdicts(ns, oracle.dists(ns), 0.5)
        assert below.all() and exact.any()
        tiny = Fraction(oracle.ebound) / 4
        below, exact = oracle.verdicts(np.array([0, 1]), oracle.dists(np.array([0, 1])), tiny)
        assert below.tolist() == [True, False] and exact.tolist() == [True, False]


CF_ALPHAS = (parse_alpha("cf:1;2,3;4,5"), parse_alpha("cf:0;2,1000000000;1,3"))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.sampled_from(ALPHA_PANEL + CF_ALPHAS), st.integers(1, 2 ** 40),
       st.integers(-16, 16), st.sampled_from([2.0 ** -40, 2.0 ** -12, 0.2]), st.booleans())
def test_verdicts_match_mpmath_with_delta_near_the_angle(spec, n, step, err_target, as_float):
    # delta within 2^-60 of ||n*alpha||, as an exact rational or as the
    # float nearest it; n, -n and 0 in one batch
    oracle = build_angle_oracle(spec, n_max=n, err_target=err_target)
    with mp.workdps(100):
        delta = Fraction(int(mp.nint(mp_angle(spec, n) * 2 ** 80)), 2 ** 80) + Fraction(step, 2 ** 64)
    if as_float:
        delta = float(delta)
    assume(0 < delta <= 0.5)
    ns = np.array([n, -n, 0])
    below, _ = oracle.verdicts(ns, oracle.dists(ns), delta)
    want = true_below(spec, n, delta)
    assert below.tolist() == [want, want, True]


def test_f_direct_array_matches_scalar():
    rng = random.Random(3)
    xs = [rng.uniform(-3, 3) for _ in range(500)] + [0.0, 0.5, -0.5, 1.5, 2.5]
    for delta in (0.01, 0.1, 0.45, 0.5):
        got = f_direct_array(np.array(xs), delta)
        for x, g in zip(xs, got.tolist()):
            assert g == pytest.approx(f_direct(x, delta), rel=1e-14, abs=1e-300)
    with pytest.raises(ValueError):
        f_direct_array(np.array([0.1]), 0.7)


def test_exact_sum_is_correctly_rounded():
    rng = random.Random(11)
    values = [rng.uniform(0, 1) * 10.0 ** rng.randrange(-300, 300) for _ in range(4000)]
    values += [-v for v in values[:500]] + [5e-324, 0.0, 1e308, -1e308]
    rng.shuffle(values)
    acc = ExactSum()
    cut = 0
    while cut < len(values):
        step = rng.randrange(1, 700)
        acc.add(np.array(values[cut: cut + step]))
        cut += step
    assert acc.value() == math.fsum(values)
    # cancellation across calls leaves the tiny terms exactly
    acc = ExactSum()
    for part in ([1e308, 2.5e-300], [-1e308, 1e-320], [3.0], [-3.0]):
        acc.add(np.array(part))
    assert acc.value() == math.fsum([2.5e-300, 1e-320])
    assert ExactSum().value() == 0.0
    with pytest.raises(ValueError):
        ExactSum().add(np.array([math.inf]))


# Floats whose exponents span the whole double range: hypothesis' own
# floats (subnormals included), M * 2^e with every e a double can take,
# and signed zeros.
EVERY_EXPONENT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(math.ldexp, st.integers(-(2 ** 53) + 1, 2 ** 53 - 1), st.integers(-1126, 971)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(EVERY_EXPONENT, max_size=80), st.lists(st.integers(0, 80), max_size=6))
def test_exact_sum_property_is_the_correctly_rounded_fraction_sum(values, cuts):
    acc = ExactSum()
    bounds = [0] + sorted(cuts) + [len(values)]
    for start, stop in zip(bounds, bounds[1:]):
        acc.add(np.array(values[start:stop], dtype=np.float64))
    exact = sum(map(Fraction, values), Fraction(0))
    try:
        want = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            acc.value()
        return
    assert acc.value() == want


@pytest.mark.parametrize("sign", [1, -1])
def test_exact_sum_at_the_chunk_bound(sign):
    # a full chunk of the largest mantissa, all in the top slot of one
    # bucket: every half takes its largest shift, so the int64 bucket sums
    # come as close to 2^62 in magnitude as the chunk allows (for the
    # negative sign they reach it); one more value starts a second chunk
    top = (1 << ExactSum._BUCKET_BITS) - 1
    slot = (70 << ExactSum._BUCKET_BITS) + top
    value = sign * math.ldexp(2 ** 53 - 1, slot - 1126)
    n = ExactSum._CHUNK
    acc = ExactSum()
    acc.add(np.full(n, value))
    assert acc.value() == n * value
    acc.add(np.array([value]))
    assert acc.value() == float(Fraction(value) * (n + 1))


def frexp_slots(values):
    """The ExactSum slots e + 1073 of the floats, e their np.frexp exponents."""
    return np.frexp(np.array(values, dtype=np.float64))[1] + 1073


@st.composite
def narrow_chunks(draw):
    """Floats whose slots lie within 16 consecutive ones, with both signs.

    A run of 16 slots from a drawn least slot (of normal floats, or
    subnormals k * 2^-1074 in slots 0..15); runs from the least slots
    past 1058 reach slot 1073 of the signed zeros, which join them, and
    runs that start inside a bucket straddle its boundary.
    """
    sign = st.sampled_from([1, -1])
    if draw(st.booleans()):
        k = st.integers(1, 2 ** 16 - 1)
        return draw(st.lists(st.builds(lambda s, k: s * k * 5e-324, sign, k),
                             min_size=1, max_size=80))
    least = draw(st.one_of(st.integers(52, 2098 - 16), st.integers(1058, 1073),
                           st.builds(lambda b: 16 * b + 9, st.integers(4, 129))))
    value = st.builds(lambda s, m, j: s * math.ldexp(m, least + j - 1126),
                      sign, st.integers(2 ** 52, 2 ** 53 - 1), st.integers(0, 15))
    if least <= 1073 <= least + 15:
        value = st.one_of(value, st.sampled_from([0.0, -0.0]))
    return draw(st.lists(value, min_size=1, max_size=80))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(narrow_chunks(), st.lists(st.integers(0, 80), max_size=6))
def test_exact_sum_of_narrow_chunks_is_the_correctly_rounded_fraction_sum(values, cuts):
    # every call's chunk spans at most 16 slots, so it is summed in one
    # group relative to its least slot, without the buckets
    slots = frexp_slots(values)
    assert slots.max() - slots.min() < 1 << ExactSum._BUCKET_BITS
    acc = ExactSum()
    bounds = [0] + sorted(cuts) + [len(values)]
    for start, stop in zip(bounds, bounds[1:]):
        acc.add(np.array(values[start:stop], dtype=np.float64))
    exact = sum(map(Fraction, values), Fraction(0))
    try:
        want = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            acc.value()
        return
    assert acc.value() == want


@pytest.mark.parametrize("least", [1066, (70 << ExactSum._BUCKET_BITS) + 1])
@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_exact_sum_of_a_full_chunk_at_the_largest_shift(least, wide, sign):
    # all but one value of a full chunk take the largest mantissa 15 slots
    # above the least one, the largest shift of one group: its int64 sums
    # come as close to 2^62 as the chunk allows.  The last value sits in
    # the least slot, or (wide) far below, so that the chunk takes the
    # buckets instead; least = 70 * 16 + 1 puts the run across a bucket
    # boundary
    top = sign * math.ldexp(2 ** 53 - 1, least + 15 - 1126)
    last = sign * math.ldexp(2 ** 53 - 1, least - (40 if wide else 0) - 1126)
    n = ExactSum._CHUNK
    values = np.full(n, top)
    values[-1] = last
    slots = frexp_slots([top, last])
    assert (slots.max() - slots.min() < 1 << ExactSum._BUCKET_BITS) != wide
    acc = ExactSum()
    acc.add(values)
    assert acc.value() == float(Fraction(top) * (n - 1) + Fraction(last))


def test_benchmark_entry_points():
    # the benchmark resolves these names and signatures; a rename must fail here
    s = sieve_interval(50, 100)
    assert (s.lo, s.hi) == (50, 100)
    assert s.prime_count() == len(s.primes()) == 10
    assert s.is_prime(53) and not s.is_prime(64)
    assert "prime_powers" in IntervalSieve.__dict__
    assert "dist" in AngleOracle.__dict__ and "frac" in AngleOracle.__dict__
    assert list(inspect.signature(primes_with_small_angle).parameters)[:3] == [
        "sieve", "oracle", "delta"]
    oracle = build_angle_oracle(SQRT2, n_max=100)
    assert small_angle_count(s, oracle, 0.1).boundary_count == 0
    assert list(inspect.signature(classify_against_threshold).parameters) == [
        "value", "err", "threshold"]
    assert callable(f_direct) and callable(mangoldt_sum_interval)
    assert list(inspect.signature(sieve_interval).parameters)[:2] == ["lo", "hi"]


def test_higher_powers_at_window_edges():
    for n, p, k in [(2 ** 40, 2, 40), (3 ** 25, 3, 25), (997 ** 4, 997, 4), (1_000_003 ** 2, 1_000_003, 2)]:
        assert sieve_interval(n - 1, n).higher_powers == [(n, p, k)]
        assert sieve_interval(n, n + 1).higher_powers == []
        assert (n, p, k) in sieve_interval(n - 3000, n + 3000).higher_powers
