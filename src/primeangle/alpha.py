"""Exact continued-fraction machinery for irrational numbers.

Everything here runs on arbitrary-size integers: partial quotients of a
quadratic surd (a + b*sqrt(d))/c come from the classical integer algorithm
on states (m, q) with q | D - m^2 (D = b^2*d), convergents come from the
recurrence p_n = a_n*p_{n-1} + p_{n-2}, and the distance-to-nearest-integer
function ||n*alpha|| is evaluated through a deep anchor convergent P/Q as
min(nP mod Q, Q - nP mod Q)/Q.  Since |alpha - P/Q| < 1/Q^2 and ||.|| is
1-Lipschitz, the anchor evaluation carries the uniform certified error
n_max/Q^2, which the oracle keeps below a caller-chosen target.

Every alpha is a quadratic surd (an explicit expansion is eventually
periodic), so no floating point enters any comparison against alpha
itself: comparisons are integer sign tests of B*sqrt(d) - R via squaring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, inf, isqrt, nextafter
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
    "find_q_in_window",
    "build_angle_oracle",
    "classify_against_threshold",
    "verify_convergent_pair",
    "compare_to_rational",
]

# Hard stop for convergent walks; quadratic-surd denominators grow at least
# like Fibonacci numbers, so this is never reached for sane window/precision
# requests.
CF_ITERATION_CAP = 100_000
# Convergents kept per alpha, and alphas kept, by convergent_stream's memo.
# 256 golden-ratio convergents reach q ~ 2^177, past every anchor and
# q window the runners ask for.
MEMO_DEPTH = 256
MEMO_ALPHAS = 64

# Anchors with Q below this take the int64 residue path: n mod Q, m and Q
# convert to float64 exactly, so a float64 quotient estimate is within 2.
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
    eventually periodic, hence infinite, expansion.  It is a quadratic
    surd too, and __post_init__ sets a, b, c and d to it (_cf_surd), so
    every comparison with alpha reads (a + b*sqrt(d))/c whatever the kind.
    """

    kind: str
    a: int = 0
    b: int = 0
    c: int = 1
    d: int = 0
    preperiod: tuple = ()
    period: tuple = ()

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
            for name, value in zip("abcd", _cf_surd(self.preperiod, self.period)):
                object.__setattr__(self, name, value)
        else:
            raise ValueError(f"unknown alpha kind {self.kind!r}")

    @staticmethod
    def sqrt(d: int) -> "AlphaSpec":
        return AlphaSpec(kind="quadratic-surd", a=0, b=1, c=1, d=d)

    @staticmethod
    def surd(a: int, b: int, c: int, d: int) -> "AlphaSpec":
        return AlphaSpec(kind="quadratic-surd", a=a, b=b, c=c, d=d)

    @staticmethod
    def golden() -> "AlphaSpec":
        return AlphaSpec.surd(1, 1, 2, 5)

    @staticmethod
    def explicit_cf(preperiod, period) -> "AlphaSpec":
        return AlphaSpec(kind="explicit-cf", preperiod=tuple(preperiod), period=tuple(period))

    def canonical(self) -> str:
        """The spec in parse_alpha's grammar; parse_alpha returns an equal spec."""
        if self.kind == "quadratic-surd":
            if self.a == 0 and self.b == 1 and self.c == 1:
                return f"sqrt:{self.d}"
            return f"surd:{self.a},{self.b},{self.c},{self.d}"
        pre = ",".join(str(t) for t in self.preperiod[1:])
        per = ",".join(str(t) for t in self.period)
        return f"cf:{self.preperiod[0]};{pre};{per}"


def _mobius(terms) -> tuple:
    """(A, B, C, D) with [t_0; t_1, ..., t_{k-1}, x] = (A*x + B)/(C*x + D) for x > 0."""
    A, B, C, D = 1, 0, 0, 1
    for t in terms:
        A, B, C, D = A * t + B, A, C * t + D, C
    return A, B, C, D


def _cf_surd(preperiod, period) -> tuple:
    """(a, b, c, d) with [preperiod; (period)] = (a + b*sqrt(d))/c, c > 0, in lowest terms.

    The tail x = (u + sqrt(d))/v is the positive fixed point of the period's
    Mobius map; the preperiod's map sends it to (e + A sqrt(d))/(f + C sqrt(d)),
    rationalized by f - C sqrt(d).
    """
    A, B, C, D = _mobius(period)
    u, d, v = A - D, (A - D) ** 2 + 4 * B * C, 2 * C
    A, B, C, D = _mobius(preperiod)
    e, f = A * u + B * v, C * u + D * v
    a, b, c = e * f - A * C * d, (A * D - B * C) * v, f * f - C * C * d
    g = gcd(a, b, c) if c > 0 else -gcd(a, b, c)
    return a // g, b // g, c // g, d


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


# ---------------------------------------------------------------------------
# convergents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Convergent:
    """The rational p/q obtained by truncating the expansion at index n."""

    n: int
    p: int
    q: int


def _convergent_walk(alpha: AlphaSpec) -> Iterator[Convergent]:
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


# alpha -> (the first convergents, the walk that extends them); the
# oldest alpha is dropped past MEMO_ALPHAS entries.
_CONVERGENT_MEMO: dict = {}


def convergent_stream(alpha: AlphaSpec) -> Iterator[Convergent]:
    """Convergents p0/q0, p1/q1, ... of alpha.

    The first MEMO_DEPTH are walked once per process and kept, grown on
    demand; a stream that goes deeper walks the rest afresh.
    """
    memo = _CONVERGENT_MEMO.get(alpha)
    if memo is None:
        if len(_CONVERGENT_MEMO) >= MEMO_ALPHAS:
            del _CONVERGENT_MEMO[next(iter(_CONVERGENT_MEMO))]
        memo = _CONVERGENT_MEMO[alpha] = ([], _convergent_walk(alpha))
    known, walk = memo
    for n in range(MEMO_DEPTH):
        if n == len(known):
            known.append(next(walk))
        yield known[n]
    yield from itertools.islice(_convergent_walk(alpha), MEMO_DEPTH, None)


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


def find_q_in_window(alpha: AlphaSpec, lo: float, hi: float) -> WindowSearch:
    """First convergent with lo <= q <= hi, or the straddling pair."""
    if not (1 <= lo <= hi):
        raise ValueError("need 1 <= lo <= hi")
    below = None
    for conv in itertools.islice(convergent_stream(alpha), CF_ITERATION_CAP):
        if conv.q < lo:
            below = conv
        elif conv.q <= hi:
            return WindowSearch(found=conv, below=below, above=None)
        else:
            return WindowSearch(found=None, below=below, above=conv)
    raise CfIterationCapExceeded(f"window search exceeded {CF_ITERATION_CAP} convergents")


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


def compare_to_rational(alpha: AlphaSpec, p: int, q: int) -> int:
    """Exact sign of alpha - p/q (q > 0); equality cannot occur.

    With alpha = (a + b*sqrt(d))/c and c > 0 it is the sign of
    b*q*sqrt(d) - (c*p - a*q), an integer sign test (b*q != 0).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    return _sign_bsqrtd_minus_r(alpha.b * q, alpha.d, alpha.c * p - alpha.a * q)


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

    For all |n| <= n_max, |  ||n*alpha|| - ||n*P/Q||  | <= n_max/Q^2 <= ebound,
    the least float at or above n_max/Q^2.
    Evaluation itself is exact rational arithmetic mod Q.  Immutable and
    safe for concurrent use.
    """

    alpha: AlphaSpec
    anchor: Convergent
    residue: int
    n_max: int
    ebound: float

    def dist(self, n: int):
        """(||n*P/Q||, certified error).  Requires an integer |n| <= n_max."""
        Q, t = self.anchor.q, self._residue(n)
        return min(t, Q - t) / Q, self.ebound

    def frac(self, n: int):
        """({n*P/Q}, certified error), valid as a mod-1 position for |n| <= n_max."""
        return self._residue(n) / self.anchor.q, self.ebound

    def _residue(self, n: int) -> int:
        """Exact n*P mod Q for one integer (not bool) n with |n| <= n_max."""
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise TypeError(f"n must be an integer, got {n!r}")
        if abs(int(n)) > self.n_max:
            raise ValueError(f"|n|={abs(int(n))} exceeds oracle n_max={self.n_max}")
        return int(n) % self.anchor.q * self.residue % self.anchor.q

    def residues(self, ns: np.ndarray) -> np.ndarray:
        """Exact n*P mod Q for every n of an integer (not bool) array, |n| <= n_max.

        With Q < 2^53, a = n (n mod Q when n_max >= Q) has |a| < Q, so
        a * fl(P/Q) carries two roundings of 2^-53 on a value below 2^53:
        its floor est is within 3 of a*P/Q, and r = a*P - est*Q formed in
        wrapping uint64 is exact read as int64 (|r| < 3Q).  r mod Q is the
        int64 residue.  Larger Q runs on an object array of Python integers.
        """
        ns = np.asarray(ns)
        if ns.dtype.kind not in "iu":
            raise TypeError(f"n must be an integer array, got dtype {ns.dtype}")
        if ns.size and (int(ns.min()) < -self.n_max or int(ns.max()) > self.n_max):
            raise ValueError(f"|n| exceeds oracle n_max={self.n_max}")
        Q = self.anchor.q
        if Q >= INT64_EXACT_Q:
            return ns.astype(object) % Q * self.residue % Q
        a = ns.astype(np.uint64 if ns.dtype.kind == "u" else np.int64, copy=False)
        if self.n_max >= Q:
            a = a % a.dtype.type(Q)
        est = np.floor(a * (self.residue / Q)).astype(np.int64)
        r = a.view(np.uint64) * np.uint64(self.residue) - est.view(np.uint64) * np.uint64(Q)
        return r.view(np.int64) % np.int64(Q)

    def dists(self, ns: np.ndarray) -> np.ndarray:
        """||n*P/Q|| over an integer array, elementwise equal to dist(n)[0].

        Each is the correctly rounded float64 of min(t, Q - t)/Q for the
        exact residue t = n*P mod Q.
        """
        t = self.residues(ns)
        return self._over_q(np.minimum(t, self.anchor.q - t))

    def fracs(self, ns: np.ndarray) -> np.ndarray:
        """{n*P/Q} over an integer array, elementwise equal to frac(n)[0]."""
        return self._over_q(self.residues(ns))

    def _over_q(self, t: np.ndarray) -> np.ndarray:
        """The correctly rounded float64 of t/Q for exact residues t."""
        Q = self.anchor.q
        if t.dtype == object:
            return (t / Q).astype(np.float64)
        return t.astype(np.float64) / float(Q)

    def verdicts(self, ns: np.ndarray, x: np.ndarray, delta):
        """(below, exact): ||n*alpha|| < delta for each n of ns, given x = dists(ns).

        delta is a float or an exact rational (a Fraction).  A float64
        filter on float(delta) settles every item whose certified interval
        [x - ebound, x + ebound] lies farther than FILTER_MARGIN from it
        (float(delta), x, ebound and their sum or difference carry less
        than 2^-51 of rounding, all being at most 1).  The rest, marked in
        exact, are decided in alpha itself by _below_in_alpha, so every
        verdict is the true one at any ebound.
        """
        d, e = float(delta), self.ebound
        below = (d - (x + e)) > FILTER_MARGIN
        exact = ~below & (((x - e) - d) <= FILTER_MARGIN)
        at = np.flatnonzero(exact)
        if at.size:
            below[at] = _below_in_alpha(self.alpha, self.anchor, np.asarray(ns)[at].tolist(), delta)
        return below, exact


def build_angle_oracle(alpha: AlphaSpec, n_max: int,
                       err_target: float = 2.0 ** -40) -> AngleOracle:
    """Anchor a certified ||n*alpha|| evaluator with ebound <= err_target.

    Walks convergents until Q^2 >= n_max/err_target, decided in integers as
    Q^2 num >= n_max den for err_target = num/den, then takes one more for margin.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not (0.0 < err_target < 0.25):
        raise ValueError("err_target must lie in (0, 1/4)")
    num, den = float(err_target).as_integer_ratio()
    chosen = None
    stream = convergent_stream(alpha)
    for _ in range(CF_ITERATION_CAP):
        conv = next(stream)
        if conv.q * conv.q * num >= n_max * den:
            chosen = next(stream)  # one extra term: clean margin
            break
    if chosen is None:
        raise CfIterationCapExceeded(
            f"no anchor with Q >= sqrt({n_max}/{err_target}) within {CF_ITERATION_CAP} terms")
    return AngleOracle(alpha=alpha, anchor=chosen,
                       residue=chosen.p % chosen.q, n_max=n_max,
                       ebound=_round_up(n_max, chosen.q * chosen.q))


def _round_up(num: int, den: int) -> float:
    """The least float >= num/den, for positive integers: 5e-324 on underflow."""
    e = num / den
    a, b = e.as_integer_ratio()
    return nextafter(e, inf) if a * den < num * b else e


def _below_in_alpha(alpha: AlphaSpec, anchor: Convergent, ns, delta) -> list:
    """||n*alpha|| < delta for each integer n with |n| <= n_max, decided in alpha.

    With delta = N/D exactly (a float is a dyadic rational) and n != 0,
    ||n*alpha|| < delta iff (k*D - N)/(|n|*D) < alpha < (k*D + N)/(|n|*D)
    for the integer k nearest |n|*alpha.  The anchor P/Q has
    |n|*|alpha - P/Q| <= n_max/Q^2 < 1/4, so that k lies within one of
    k0 = round(|n|*P/Q).  Each bound is one compare_to_rational sign test.
    """
    frac = Fraction(delta)
    N, D = frac.numerator, frac.denominator
    P, Q = anchor.p, anchor.q
    out = []
    for n in map(abs, ns):
        k0 = (2 * n * P + Q) // (2 * Q)
        out.append(N > 0 if n == 0 else any(
            compare_to_rational(alpha, k * D - N, n * D) > 0
            and compare_to_rational(alpha, k * D + N, n * D) < 0 for k in (k0 - 1, k0, k0 + 1)))
    return out


def classify_against_threshold(value: float, err: float, threshold: float) -> str:
    """Decide value < threshold on the certified interval [value-err, value+err].

    Returns "below", "above", or "boundary" (interval straddles the
    threshold).  The comparison is in rounded floats, so a threshold
    within an ulp of value + err can get the wrong verdict;
    AngleOracle.verdicts decides such items, and the boundary ones, in
    alpha.  This scalar form is the reference the tests compare with.
    """
    if value + err < threshold:
        return "below"
    if value - err >= threshold:
        return "above"
    return "boundary"
