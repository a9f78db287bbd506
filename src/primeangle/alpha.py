"""Exact continued-fraction machinery for irrational numbers.

Everything here runs on arbitrary-size integers: partial quotients of a
quadratic surd (a + b*sqrt(d))/c come from the classical integer algorithm
on states (m, q) with q | D - m^2 (D = b^2*d), convergents come from the
recurrence p_n = a_n*p_{n-1} + p_{n-2}, and the distance-to-nearest-integer
function ||n*alpha|| is evaluated through a deep anchor convergent P/Q as
min(nP mod Q, Q - nP mod Q)/Q.  Since |alpha - P/Q| < 1/Q^2 and ||.|| is
1-Lipschitz, the anchor evaluation carries the uniform certified error
n_max/Q^2, which the oracle keeps below a caller-chosen target.

No floating point enters any comparison against alpha itself; surd
comparisons reduce to integer sign tests of B*sqrt(d) - R via squaring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional

import numpy as np

__all__ = [
    "AlphaSpec",
    "Convergent",
    "AngleOracle",
    "WindowSearch",
    "parse_alpha",
    "cf_terms",
    "cf_term_stream",
    "convergents",
    "convergent_stream",
    "bounded_terms_constant",
    "find_q_in_window",
    "build_angle_oracle",
    "classify_against_threshold",
    "verify_convergent_pair",
    "compare_to_rational",
]

# Hard stop for convergent walks; quadratic-surd denominators grow at least
# like Fibonacci numbers, so this is never reached for sane window/precision
# requests.
DEFAULT_CF_ITERATION_CAP = 100_000

# Anchors with Q below this take the int64 residue path: residues are exact
# in int64 and every m and Q converts to float64 exactly.
INT64_EXACT_Q = 2 ** 53
# Distance from a threshold beyond which the float64 classification filter
# decides; it exceeds the 2^-51 rounding bound of the filter's arithmetic.
FILTER_MARGIN = 2.0 ** -50


class CfIterationCapExceeded(RuntimeError):
    """A convergent walk did not reach its target within the iteration cap."""


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


@dataclass(frozen=True)
class AlphaSpec:
    """Exact description of an irrational number.

    kind "quadratic-surd": the value (a + b*sqrt(d))/c with d a positive
    nonsquare (hence irrational), b != 0, c > 0.
    kind "explicit-cf": the value [a0; pre..., (period...)] with an
    eventually periodic, hence infinite, expansion.
    """

    kind: str
    a: int = 0
    b: int = 0
    c: int = 1
    d: int = 0
    preperiod: tuple = ()
    period: tuple = ()
    label: str = field(default="", compare=False)

    def __post_init__(self):
        if self.kind == "quadratic-surd":
            if self.b == 0:
                raise ValueError("quadratic surd needs b != 0")
            if self.c <= 0:
                raise ValueError("quadratic surd needs c > 0")
            if self.d <= 0:
                raise ValueError("quadratic surd needs d > 0")
            if _is_square(self.d):
                raise ValueError(f"d={self.d} is a perfect square; value would be rational")
        elif self.kind == "explicit-cf":
            if not self.preperiod:
                raise ValueError("explicit cf needs at least a0 in the preperiod")
            if any(t < 1 for t in self.preperiod[1:]):
                raise ValueError("partial quotients a_n with n >= 1 must be >= 1")
            if not self.period:
                raise ValueError("explicit cf needs a nonempty period")
            if any(t < 1 for t in self.period):
                raise ValueError("period terms must be >= 1")
        else:
            raise ValueError(f"unknown alpha kind {self.kind!r}")

    @staticmethod
    def sqrt(d: int) -> "AlphaSpec":
        return AlphaSpec(kind="quadratic-surd", a=0, b=1, c=1, d=d, label=f"sqrt:{d}")

    @staticmethod
    def surd(a: int, b: int, c: int, d: int) -> "AlphaSpec":
        return AlphaSpec(kind="quadratic-surd", a=a, b=b, c=c, d=d,
                         label=f"surd:{a},{b},{c},{d}")

    @staticmethod
    def golden() -> "AlphaSpec":
        return AlphaSpec.surd(1, 1, 2, 5)

    @staticmethod
    def explicit_cf(preperiod, period) -> "AlphaSpec":
        pre = ";".join(str(t) for t in preperiod[1:])
        per = ",".join(str(t) for t in period)
        return AlphaSpec(kind="explicit-cf", preperiod=tuple(preperiod),
                         period=tuple(period),
                         label=f"cf:{preperiod[0]};{pre};{per}")

    def describe(self) -> str:
        return self.label or self.canonical()

    def canonical(self) -> str:
        if self.kind == "quadratic-surd":
            if self.a == 0 and self.b == 1 and self.c == 1:
                return f"sqrt:{self.d}"
            return f"surd:{self.a},{self.b},{self.c},{self.d}"
        pre = ",".join(str(t) for t in self.preperiod[1:])
        per = ",".join(str(t) for t in self.period)
        return f"cf:{self.preperiod[0]};{pre};{per}"


def parse_alpha(text: str) -> AlphaSpec:
    """Parse the textual grammar: sqrt:<d> | surd:<a>,<b>,<c>,<d> | cf:<a0>;<pre...>;<period...>."""
    text = text.strip()
    if text.startswith("sqrt:"):
        return AlphaSpec.sqrt(int(text[5:]))
    if text.startswith("surd:"):
        parts = text[5:].split(",")
        if len(parts) != 4:
            raise ValueError(f"surd spec needs 4 integers, got {text!r}")
        a, b, c, d = (int(t) for t in parts)
        return AlphaSpec.surd(a, b, c, d)
    if text.startswith("cf:"):
        segments = text[3:].split(";")
        if len(segments) != 3:
            raise ValueError(f"cf spec needs <a0>;<pre>;<period>, got {text!r}")
        a0 = int(segments[0])
        pre = [int(t) for t in segments[1].split(",") if t != ""]
        per = [int(t) for t in segments[2].split(",") if t != ""]
        return AlphaSpec.explicit_cf([a0] + pre, per)
    raise ValueError(f"unrecognized alpha spec {text!r}")


# ---------------------------------------------------------------------------
# partial quotients
# ---------------------------------------------------------------------------

def _surd_initial_state(spec: AlphaSpec):
    """Normalize (a + b*sqrt(d))/c to (m + sqrt(D))/q with q | D - m^2."""
    D = spec.b * spec.b * spec.d
    if spec.b > 0:
        m, q = spec.a, spec.c
    else:
        m, q = -spec.a, -spec.c
    if (D - m * m) % q != 0:
        m *= abs(q)
        D *= q * q
        q *= abs(q)
    return m, D, q


def _floor_surd(m: int, s: int, q: int) -> int:
    # floor((m + sqrt(D))/q) with s = isqrt(D), D nonsquare; sign of q free.
    if q > 0:
        return (m + s) // q
    return (m + s + 1) // q


def _surd_term_stream(spec: AlphaSpec) -> Iterator[int]:
    """Infinite partial-quotient stream with state-revisit period detection."""
    m, D, q = _surd_initial_state(spec)
    s = isqrt(D)
    seen: dict = {}
    history: list = []
    while True:
        key = (m, q)
        if key in seen:
            cycle = history[seen[key]:]
            yield from itertools.cycle(cycle)
            return
        seen[key] = len(history)
        a = _floor_surd(m, s, q)
        history.append(a)
        yield a
        m = a * q - m
        q = (D - m * m) // q


def cf_term_stream(alpha: AlphaSpec) -> Iterator[int]:
    """Infinite stream of partial quotients a0, a1, a2, ..."""
    if alpha.kind == "quadratic-surd":
        return _surd_term_stream(alpha)
    return itertools.chain(alpha.preperiod, itertools.cycle(alpha.period))


def cf_terms(alpha: AlphaSpec, count: int) -> list:
    """First `count` partial quotients of alpha."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(itertools.islice(cf_term_stream(alpha), count))


def bounded_terms_constant(alpha: AlphaSpec, probe: int) -> int:
    """Max partial quotient among the first `probe` terms.

    For a quadratic surd this is the true global bound M as soon as `probe`
    covers one full period.
    """
    if probe < 1:
        raise ValueError("probe must be >= 1")
    return max(cf_terms(alpha, probe))


# ---------------------------------------------------------------------------
# convergents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Convergent:
    """The rational p/q obtained by truncating the expansion at index n."""

    n: int
    p: int
    q: int

    def value(self) -> Fraction:
        return Fraction(self.p, self.q)


def convergent_stream(alpha: AlphaSpec) -> Iterator[Convergent]:
    """Convergents p0/q0, p1/q1, ... via the standard recurrence."""
    p_prev, q_prev = 1, 0
    p_cur, q_cur = None, None
    for n, a in enumerate(cf_term_stream(alpha)):
        if n == 0:
            p_cur, q_cur = a, 1
        else:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        yield Convergent(n=n, p=p_cur, q=q_cur)


def convergents(alpha: AlphaSpec, count: int) -> list:
    """First `count` convergents of alpha."""
    if count < 2:
        raise ValueError("count must be >= 2")
    return list(itertools.islice(convergent_stream(alpha), count))


@dataclass(frozen=True)
class WindowSearch:
    """Result of a denominator-window search.

    found is None when no convergent denominator lands in [lo, hi]; below
    and above are then the straddling convergents (deepest q < lo, first
    q > hi) for the experiment layer's nearest-convergent fallback.
    """

    found: Optional[Convergent]
    below: Optional[Convergent]
    above: Optional[Convergent]

    @property
    def ok(self) -> bool:
        return self.found is not None


def find_q_in_window(alpha: AlphaSpec, lo: float, hi: float,
                     cap: int = DEFAULT_CF_ITERATION_CAP) -> WindowSearch:
    """First convergent with lo <= q <= hi, or the straddling pair."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    below = None
    for conv in itertools.islice(convergent_stream(alpha), cap):
        if conv.q < lo:
            below = conv
        elif conv.q <= hi:
            return WindowSearch(found=conv, below=below, above=None)
        else:
            return WindowSearch(found=None, below=below, above=conv)
    raise CfIterationCapExceeded(f"window search exceeded {cap} convergents")


# ---------------------------------------------------------------------------
# exact comparisons
# ---------------------------------------------------------------------------

def _sign_bsqrtd_minus_r(B: int, d: int, R: int) -> int:
    """Sign of B*sqrt(d) - R for nonsquare d (never zero unless B = R = 0)."""
    if B == 0:
        return (R < 0) - (R > 0)
    if B > 0:
        if R <= 0:
            return 1
        lhs, rhs = B * B * d, R * R
        return (lhs > rhs) - (lhs < rhs)
    if R >= 0:
        return -1
    lhs, rhs = R * R, B * B * d
    return (lhs > rhs) - (lhs < rhs)


def compare_to_rational(alpha: AlphaSpec, p: int, q: int,
                        depth: int = 64) -> int:
    """Exact sign of alpha - p/q (q > 0); equality cannot occur.

    Quadratic surds compare through integer sign tests; explicit
    expansions compare through a deep consecutive-convergent bracket,
    deepening until the bracket excludes p/q.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if alpha.kind == "quadratic-surd":
        # (a + b sqrt(d))/c vs p/q  <=>  b*q*sqrt(d) vs c*p - a*q
        B = alpha.b * q
        R = alpha.c * p - alpha.a * q
        sign = _sign_bsqrtd_minus_r(B, alpha.d, R)
        if sign == 0:
            raise ArithmeticError("surd compared equal to a rational")
        return sign
    target = Fraction(p, q)
    pair = []
    for conv in itertools.islice(convergent_stream(alpha), depth):
        pair.append(conv)
        if len(pair) < 2:
            continue
        lo, hi = sorted((pair[-2].value(), pair[-1].value()))
        if target <= lo:
            return 1
        if target >= hi:
            return -1
    raise CfIterationCapExceeded(
        f"p/q = {p}/{q} not separated from alpha within depth {depth}")


def verify_convergent_pair(alpha: AlphaSpec, conv: Convergent,
                           deeper: Convergent) -> bool:
    """Exact integer verification of one convergent against its successor.

    Checks gcd(p, q) = 1, the determinant identity
    p_{n+1} q_n - p_n q_{n+1} = (-1)^n, that alpha lies strictly between
    the two convergents, and hence |alpha - p/q| < 1/(q q') <= 1/q^2.
    All steps are integer arithmetic; no floats touch alpha.
    """
    if deeper.n != conv.n + 1:
        raise ValueError("need consecutive convergents")
    if gcd(conv.p, conv.q) != 1:
        return False
    det = deeper.p * conv.q - conv.p * deeper.q
    if det != (-1) ** conv.n:
        return False
    s1 = compare_to_rational(alpha, conv.p, conv.q)
    s2 = compare_to_rational(alpha, deeper.p, deeper.q)
    if s1 * s2 != -1:
        return False
    # alpha strictly between the two =>  |alpha - p/q| < |p'/q' - p/q|
    # = |det|/(q q') = 1/(q q') <= 1/q^2 because q' >= q.
    return deeper.q >= conv.q


# ---------------------------------------------------------------------------
# certified angle oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleOracle:
    """Evaluator of ||n*alpha|| through a deep anchor convergent P/Q.

    For all |n| <= n_max, |  ||n*alpha|| - ||n*P/Q||  | <= n_max/Q^2 = ebound.
    Evaluation itself is exact rational arithmetic mod Q.  Immutable and
    safe for concurrent use.
    """

    alpha: AlphaSpec
    anchor: Convergent
    residue: int
    n_max: int
    ebound: float

    def dist(self, n: int):
        """(||n*P/Q||, certified error).  Requires |n| <= n_max."""
        if abs(n) > self.n_max:
            raise ValueError(f"|n|={abs(n)} exceeds oracle n_max={self.n_max}")
        Q = self.anchor.q
        t = (n % Q) * self.residue % Q
        return min(t, Q - t) / Q, self.ebound

    def frac(self, n: int):
        """({n*P/Q}, certified error), valid as a mod-1 position for |n| <= n_max."""
        if abs(n) > self.n_max:
            raise ValueError(f"|n|={abs(n)} exceeds oracle n_max={self.n_max}")
        Q = self.anchor.q
        return ((n % Q) * self.residue % Q) / Q, self.ebound

    def residues(self, ns: np.ndarray) -> np.ndarray:
        """Exact n*P mod Q for every n of an integer array, |n| <= n_max.

        With Q < 2^53 the product runs in int64: P is split into limbs of
        63 - Q.bit_length() bits, so no product or shifted partial result
        reaches 2^63.  Larger Q runs the same arithmetic on an object array
        of Python integers.
        """
        ns = np.asarray(ns)
        if ns.size and int(np.abs(ns).max()) > self.n_max:
            raise ValueError(f"|n| exceeds oracle n_max={self.n_max}")
        Q = self.anchor.q
        if Q >= INT64_EXACT_Q:
            return ns.astype(object) % Q * self.residue % Q
        width = 63 - Q.bit_length()
        a = ns.astype(np.int64) % Q
        t = np.zeros_like(a)
        top = -(-self.residue.bit_length() // width) * width
        for shift in range(top - width, -1, -width):
            limb = (self.residue >> shift) & ((1 << width) - 1)
            t = ((t << width) % Q + a * limb % Q) % Q
        return t

    def dists(self, ns: np.ndarray):
        """(m, x): exact m = min(t, Q - t) with t = n*P mod Q, and x = m/Q.

        x is the correctly rounded float64 of m/Q, elementwise equal to
        dist(n)[0].  m is int64 while Q < 2^53, else Python integers in an
        object array.
        """
        t = self.residues(ns)
        m = np.minimum(t, self.anchor.q - t)
        return m, self._over_q(m)

    def fracs(self, ns: np.ndarray) -> np.ndarray:
        """{n*P/Q} over an integer array, elementwise equal to frac(n)[0]."""
        return self._over_q(self.residues(ns))

    def _over_q(self, t: np.ndarray) -> np.ndarray:
        """The correctly rounded float64 of t/Q for exact residues t."""
        Q = self.anchor.q
        if t.dtype == object:
            return (t / Q).astype(np.float64)
        return t.astype(np.float64) / float(Q)

    def classify(self, ns: np.ndarray, delta):
        """(x, below, boundary) for ||n*alpha|| < delta over an integer array.

        delta is a float or an exact rational (a Fraction).  The certified
        verdict for one n is "below" iff m/Q + n_max/Q^2 < delta, "above"
        iff m/Q - n_max/Q^2 >= delta, else "boundary".  A float64 filter
        on float(delta) settles every item farther than FILTER_MARGIN from
        either threshold (float(delta), x, ebound and their sum or
        difference carry less than 2^-51 of rounding, all being at most
        1); the rest are decided exactly in integers by _decide_exactly.
        """
        m, x = self.dists(ns)
        d, e = float(delta), self.ebound
        below = (d - (x + e)) > FILTER_MARGIN
        above = ((x - e) - d) > FILTER_MARGIN
        unsure = np.flatnonzero(~(below | above))
        if unsure.size:
            verdicts = _decide_exactly(m[unsure].tolist(), self.anchor.q, self.n_max, delta)
            below[unsure] = [v == "below" for v in verdicts]
            above[unsure] = [v == "above" for v in verdicts]
        return x, below, ~(below | above)


def build_angle_oracle(alpha: AlphaSpec, n_max: int, err_target: float = 2.0 ** -40,
                       cap: int = DEFAULT_CF_ITERATION_CAP) -> AngleOracle:
    """Anchor a certified ||n*alpha|| evaluator with ebound <= err_target.

    Walks convergents until Q^2 >= n_max/err_target, then takes one more for
    margin against float rounding of the threshold.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not (0.0 < err_target < 0.25):
        raise ValueError("err_target must lie in (0, 1/4)")
    threshold = n_max / err_target
    chosen = None
    stream = convergent_stream(alpha)
    for _ in range(cap):
        conv = next(stream)
        if conv.q * conv.q >= threshold:
            chosen = next(stream)  # one extra term: clean margin
            break
    if chosen is None:
        raise CfIterationCapExceeded(
            f"no anchor with Q >= sqrt({n_max}/{err_target}) within {cap} terms")
    return AngleOracle(alpha=alpha, anchor=chosen,
                       residue=chosen.p % chosen.q, n_max=n_max,
                       ebound=n_max / (chosen.q * chosen.q))


def _decide_exactly(ms, Q: int, n_max: int, delta) -> list:
    """Certified verdicts for residues m = min(t, Q - t), in integers only.

    With delta = N/D exactly (a float is a dyadic rational): "below" iff
    (m*Q + n_max)*D < N*Q^2, "above" iff (m*Q - n_max)*D >= N*Q^2.
    """
    frac = Fraction(delta)
    N, D = frac.numerator, frac.denominator
    bar = N * Q * Q
    verdicts = []
    for m in ms:
        if (m * Q + n_max) * D < bar:
            verdicts.append("below")
        elif (m * Q - n_max) * D >= bar:
            verdicts.append("above")
        else:
            verdicts.append("boundary")
    return verdicts


def classify_against_threshold(value: float, err: float, threshold: float) -> str:
    """Decide value < threshold on the certified interval [value-err, value+err].

    Returns "below", "above", or "boundary" (interval straddles the
    threshold; callers count boundary cases separately).  The comparison
    is in rounded floats, so a threshold within an ulp of value + err can
    get the wrong verdict; AngleOracle.classify decides such items
    exactly.  This scalar form is the reference the tests compare with.
    """
    if value + err < threshold:
        return "below"
    if value - err >= threshold:
        return "above"
    return "boundary"
