"""Brute-force reference oracles.

Everything in this module is deliberately naive: trial division, direct
divisor enumeration, term-by-term summation, full quadruple loops.  The
fast implementations elsewhere are validated against these; nothing here
may import from the modules it checks (only the angle oracle is shared,
since both sides consume identical certified fractional parts).

The exponential-sum reference forms its terms as baby-step/giant-step
products, e(n x) = e((a + jB) x) e(k x), so that it evaluates about
2 sqrt(c) exponentials for c terms, and takes a batch of ranges at once,
grouped by the shape of their products; every term is still formed and
added, and nothing uses the Dirichlet kernel that the closed form in
expsum rests on.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np

__all__ = [
    "trial_division_primes",
    "is_prime_trial",
    "naive_mangoldt_pk",
    "naive_mu",
    "naive_tau",
    "divisors",
    "naive_exp_sum",
    "naive_exp_sums",
    "naive_type_i_block",
    "naive_type_ii_block",
    "brute_force_quadruples",
]


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def trial_division_primes(lo: int, hi: int) -> list:
    """Primes in (lo, hi] by per-number trial division."""
    return [n for n in range(lo + 1, hi + 1) if is_prime_trial(n)]


def naive_mangoldt_pk(n: int):
    """(p, k) if n = p^k, else None, by factoring."""
    if n < 2:
        return None
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            return (p, k) if n == 1 else None
    return (n, 1)


def naive_mu(n: int) -> int:
    if n == 1:
        return 1
    sign, m = 1, n
    for p in range(2, isqrt(n) + 1):
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            sign = -sign
    if m > 1:
        sign = -sign
    return sign


def naive_tau(n: int) -> int:
    return len(divisors(n))


def divisors(n: int) -> list:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


# ---------------------------------------------------------------------------
# naive sums (term-by-term; vectorized only to keep test runtimes sane)
# ---------------------------------------------------------------------------

EXACT_PHASE_N = 1 << 27  # |n| below this keeps n * x_hi (26 bits) exact
# Products per sub-batch of naive_exp_sums: 512 kB of complex128.
NAIVE_BATCH = 2 ** 15


def naive_exp_sum(w: float, z: float, x: float) -> complex:
    """sum of e(n*x) over integers n in (w, z], summed term by term.

    The one-range call of naive_exp_sums; see there for the method and
    its accuracy.  Raises ValueError for a non-finite input, and for a
    range reaching |n| >= 2^27, where the phase reduction would no
    longer be exact.
    """
    return complex(_naive_sums([w], [z], [x], "naive_exp_sum", indexed=False)[0])


def naive_exp_sums(w, z, x) -> np.ndarray:
    """sum of e(n*x[i]) over integers n in (w[i], z[i]], per range, term by term.

    The c terms, a <= n <= b, of a range are products of baby and giant
    steps: with B = isqrt(c), term a + j*B + k is e((a + j*B) x) * e(k x)
    for 0 <= k < B, so only about 2 sqrt(c) exponentials are evaluated.
    Each factor's phase n*x is reduced mod 1 into [-1/2, 1/2] through a
    Veltkamp split of x (n * x_hi is exact for |n| < 2^27), so a factor
    is accurate to a few ulps, and a phase next to an integer, where the
    terms line up and the sum is large, keeps its relative accuracy.
    Every one of the c products is formed and added; nothing here uses
    the closed form, nor factors the sum into (sum of giants) * (sum of
    babies).

    The ranges are batched by shape: those sharing B and the row count
    R = ceil(c / B) form their products as one (ranges, R, B) array, at
    most about NAIVE_BATCH products at a time, with the last row's
    k >= c - (R - 1) B set to 0, and each range's R*B entries are added
    by one row sum.  A range's value depends only on its own w, z and
    x, bit for bit, whatever else is in the batch.

    Against a 40-digit evaluation of e((a+b)x/2) sin(pi c x)/sin(pi x),
    the error measured at most 3.8e-12 over 32,000 ranges with c <= 2*10^4,
    a quarter of them with every term in line, as for the one-range form
    before it (7.6e-12 for the per-term form); tests/test_expsum.py bounds
    it by 1e-11.  Raises
    ValueError, naming the index of the range, for a non-finite input
    and for a range reaching |n| >= 2^27.  An empty range sums to 0j.
    """
    return _naive_sums(w, z, x, "naive_exp_sums", indexed=True)


def _naive_sums(w, z, x, caller: str, indexed: bool) -> np.ndarray:
    """naive_exp_sums, whose errors name the caller and, if indexed, the range."""
    w, z, x = (np.asarray(v, dtype=np.float64).ravel() for v in (w, z, x))
    if not w.size == z.size == x.size:
        raise ValueError(f"{caller} needs w, z and x of one length, "
                         f"got {w.size}, {z.size} and {x.size}")

    def refuse(i: int, message: str):
        raise ValueError(f"{caller} {message}" + (f" (range {i})" if indexed else ""))

    for name, values in (("w", w), ("z", z), ("x", x)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            refuse(int(bad[0]), f"needs a finite {name}, got {name}={float(values[bad[0]])!r}")
    floor_w, floor_z = np.floor(w), np.floor(z)
    used = np.flatnonzero(floor_z > floor_w)        # a = floor(w) + 1 <= b = floor(z)
    out = np.zeros(w.size, dtype=np.complex128)
    if not used.size:
        return out
    outside = (floor_w[used] < -EXACT_PHASE_N) | (floor_z[used] >= EXACT_PHASE_N)
    if outside.any():
        i = int(used[np.argmax(outside)])
        refuse(i, f"reduces phases exactly only for |n| < 2^27, got the range "
                  f"{int(floor_w[i]) + 1} <= n <= {int(floor_z[i])} "
                  f"from w={float(w[i])!r}, z={float(z[i])!r}")
    a = floor_w[used].astype(np.int64) + 1
    count = floor_z[used].astype(np.int64) - a + 1
    x = x[used] - np.rint(x[used])                  # exact: e(n x) is 1-periodic in x
    split = x * ((1 << 26) + 1)
    x_hi = split - (split - x)                      # top 26 mantissa bits of x
    x_lo = x - x_hi                                 # exact remainder
    step = np.sqrt(count).astype(np.int64)          # isqrt(count): exact for c < 2^52
    rows = -(-count // step)
    order = np.lexsort((rows, step))
    cut = np.flatnonzero(np.diff(step[order]) | np.diff(rows[order])) + 1
    for group in np.split(order, cut):
        B, R = int(step[group[0]]), int(rows[group[0]])
        per_batch = max(1, NAIVE_BATCH // (R * B))
        for first in range(0, group.size, per_batch):
            part = group[first:first + per_batch]
            out[used[part]] = _row_sums(a[part], count[part], x_hi[part], x_lo[part], B, R)
    return out


def _row_sums(a, count, x_hi, x_lo, B: int, R: int) -> np.ndarray:
    """The sums of ranges with B = isqrt(c) and R = ceil(c / B), one row each.

    A function of its own, so that one sub-batch's temporaries are freed
    before the next one's products are formed.
    """
    babies = np.arange(B)
    n = np.empty((a.size, B + R))                   # exact: integers below 2^27
    n[:, :B] = babies                               # the baby steps k < B,
    n[:, B:] = a[:, None] + B * np.arange(R)        # then the giant steps a + j*B, j < R
    hi = n * x_hi[:, None]                          # exact: 26-bit times |n| < 2^27
    factors = np.exp(2j * np.pi * ((hi - np.rint(hi)) + n * x_lo[:, None]))
    terms = factors[:, B:, None] * factors[:, None, :B]
    terms[:, -1][babies >= count[:, None] - (R - 1) * B] = 0
    return terms.reshape(a.size, R * B).sum(axis=1)


def _phase_sum(coeffs, x: float) -> complex:
    """sum over 0 < h <= len(coeffs) of coeffs[h-1] * e(h*x), directly."""
    total = 0j
    for h, c in enumerate(coeffs, start=1):
        total += c * complex(math.cos(2 * math.pi * h * x),
                             math.sin(2 * math.pi * h * x))
    return total


def naive_type_i_block(m: int, n_lo: int, n_hi: int, h_coeffs, frac_of) -> float:
    """max over suffix start k of |sum_{k<=n<=n_hi} sum_h c(h) e(h*m*n*alpha)|.

    Accumulates the suffix sum one n at a time from the top; n_lo is the
    smallest admissible suffix start.  frac_of(j) supplies {j*alpha}.
    """
    best = 0.0  # the empty suffix is admissible
    running = 0j
    for n in range(n_hi, n_lo - 1, -1):
        running += _phase_sum(h_coeffs, frac_of(m * n))
        best = max(best, abs(running))
    return best


def naive_type_ii_block(m_values, a_of, b_of, n_range_of, h_range, c_of,
                        frac_of) -> complex:
    """Triple loop for sum_m sum_n sum_h a(m) b(n) c(h) e(h*m*n*alpha)."""
    total = 0j
    for m in m_values:
        am = a_of(m)
        if am == 0.0:
            continue
        n_lo, n_hi = n_range_of(m)
        for n in range(n_lo, n_hi + 1):
            bn = b_of(n)
            if bn == 0:
                continue
            x = frac_of(m * n)
            inner = 0j
            for h in h_range:
                inner += c_of(h) * complex(math.cos(2 * math.pi * h * x),
                                           math.sin(2 * math.pi * h * x))
            total += am * bn * inner
    return total


def brute_force_quadruples(X: int, Y: int, M: int, H: int) -> dict:
    """Histogram of l = n1*h1 - n2*h2 over the full quadruple box.

    Ranges: X/(2M) < n1 <= n2 <= 2X/M, n2 - n1 <= 2Y/M, H/2 < h1, h2 <= H.
    Returns {l: [gamma0, gamma1]} where gamma0 is the degenerate part with
    l + (n2 - n1)*h2 = 0.  Four plain loops; exponentially dumb on purpose.
    """
    counts: dict = {}
    n_min = X // (2 * M) + 1
    n_max = (2 * X) // M
    h_lo = H // 2 + 1
    for n1 in range(n_min, n_max + 1):
        for n2 in range(n1, n_max + 1):
            if M * (n2 - n1) > 2 * Y:
                break
            for h1 in range(h_lo, H + 1):
                for h2 in range(h_lo, H + 1):
                    l = n1 * h1 - n2 * h2
                    slot = counts.setdefault(l, [0, 0])
                    if l + (n2 - n1) * h2 == 0:
                        slot[0] += 1
                    else:
                        slot[1] += 1
    return counts
