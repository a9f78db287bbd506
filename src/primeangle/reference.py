"""Brute-force reference oracles.

Everything in this module is deliberately naive: trial division, direct
divisor enumeration, term-by-term summation, full quadruple loops.  The
fast implementations elsewhere are validated against these; nothing here
may import from the modules it checks (only the angle oracle is shared,
since both sides consume identical certified fractional parts).

The exponential-sum reference forms its terms as baby-step/giant-step
products, e(n x) = e((a + jB) x) e(k x), so that it evaluates about
2 sqrt(c) exponentials for c terms; it still adds every term, and never
uses the Dirichlet kernel that the closed form in expsum rests on.
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


def naive_exp_sum(w: float, z: float, x: float) -> complex:
    """sum of e(n*x) over integers n in (w, z], summed term by term.

    The c terms, a <= n <= b, are products of baby and giant steps: with
    B = isqrt(c), term a + j*B + k is e((a + j*B) x) * e(k x) for
    0 <= k < B, so only about 2 sqrt(c) exponentials are evaluated.  Each
    factor's phase n*x is reduced mod 1 into [-1/2, 1/2] through a
    Veltkamp split of x (n * x_hi is exact for |n| < 2^27), so a factor
    is accurate to a few ulps, and a phase next to an integer, where the
    terms line up and the sum is large, keeps its relative accuracy.  The
    c products are then summed one by one, as the direct form would be;
    nothing here uses the closed form.

    Against a 40-digit evaluation of e((a+b)x/2) sin(pi c x)/sin(pi x),
    the error measured at most 4.1e-12 over 16,000 ranges with c <= 2*10^4,
    a quarter of them with every term in line (7.6e-12 for the per-term
    form it replaces); tests/test_expsum.py bounds it by 1e-11.  Raises
    ValueError for a non-finite input, and for a range reaching
    |n| >= 2^27, where the phase reduction would no longer be exact.
    """
    for name, value in (("w", w), ("z", z), ("x", x)):
        if not math.isfinite(value):
            raise ValueError(f"naive_exp_sum needs a finite {name}, got {name}={value!r}")
    a = math.floor(w) + 1
    b = math.floor(z)
    if b < a:
        return 0j
    if max(-a, b) >= EXACT_PHASE_N:
        raise ValueError(f"naive_exp_sum reduces phases exactly only for |n| < 2^27, "
                         f"got the range {a} <= n <= {b} from w={w!r}, z={z!r}")
    x = x - round(x)                 # exact: e(n x) is 1-periodic in x
    split = x * ((1 << 26) + 1)
    x_hi = split - (split - x)       # top 26 mantissa bits of x
    x_lo = x - x_hi                  # exact remainder
    count = b - a + 1
    step = isqrt(count)
    rows = -(-count // step)
    # the baby steps k < step, then the giant steps a + j*step, j < rows
    n = np.concatenate((np.arange(step), a + step * np.arange(rows))).astype(np.float64)
    hi = n * x_hi                    # exact: 26-bit times |n| < 2^27
    factors = np.exp(2j * np.pi * ((hi - np.rint(hi)) + n * x_lo))
    terms = factors[step:, None] * factors[:step]
    return complex(terms.ravel()[:count].sum())


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
