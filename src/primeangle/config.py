"""Experiment configuration, admissibility checking, and denominator selection.

A configuration is admissible when it satisfies the hypotheses of the main
asymptotic: X >= 10, X^{2/3+10eps} <= Y <= X/2, and
X^{10eps} max(X^{1/4} Y^{-1/2}, X^{2/3} Y^{-1}) <= delta <= 1/2.  The
denominator q is then searched in the window

    Y / (delta X^{1/2-2eps})  <=  q  <=  Y / (delta X^{1/2-3eps}),

whose ratio X^eps can at desk scale be narrower than the worst-case gap
factor between consecutive convergent denominators; the default
nearest-convergent policy therefore falls back to the straddling
convergent closest to the window's geometric midpoint on the log scale,
recording q_in_window = False.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

from .alpha import DEFAULT_ERR_TARGET, AlphaSpec, find_q_in_window, parse_alpha

__all__ = [
    "ExperimentConfig",
    "AdmissibilityReport",
    "InadmissibleConfig",
    "QWindowMiss",
    "check_admissible",
    "require_admissible",
    "select_q",
    "parse_precision",
    "config_from_dict",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1729
DEFAULT_BUDGET = 1e9

Q_POLICIES = ("strict-window", "nearest-convergent")
Q_POLICY_ALIASES = {"strict": "strict-window", "nearest": "nearest-convergent",
                    **{policy: policy for policy in Q_POLICIES}}
FORMATS = ("json", "csv")


class InadmissibleConfig(ValueError):
    """Configuration violates a stated hypothesis and force was not set."""


class QWindowMiss(ValueError):
    """strict-window policy found no convergent denominator in the window."""


def _rounds_to_zero(text: str, value: float) -> bool:
    """Whether ``text``, read as ``value``, is a nonzero number that rounds to 0.0."""
    # a power of two is never zero, nor a float with a nonzero digit before its exponent
    return value == 0.0 and any(c in "123456789" for c in text.lower().partition("e")[0])


def json_float(text: str):
    """A JSON number as a float, or as its text if it is nonzero and rounds to 0.0.

    The parse_float of the json.load of --config and sweep files: a
    reader then sees such a number as written, so err_target 1e-400 is
    named as '1e-400' and not as 0.0, and X, Y, delta, eps, budget and
    seed refuse it as text.
    """
    value = float(text)
    return text if _rounds_to_zero(text, value) else value


def parse_precision(text) -> float:
    """Accept '2^-40' style powers of two or plain floats; refuse one that rounds to 0.0."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    if text.startswith("2^"):
        try:
            value = 2.0 ** int(text[2:])
        except (ValueError, OverflowError):
            raise ValueError(f"precision {text!r} is not a float-sized 2^<integer>") from None
    else:
        value = float(text)
    if _rounds_to_zero(text, value):
        raise ValueError(f"err_target must lie in (0, 1/4), got {text!r}, which rounds to 0.0")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment point; U, V and the Fourier length L are derived."""

    X: int
    Y: int
    delta: float
    eps: float
    alpha: AlphaSpec
    err_target: float = DEFAULT_ERR_TARGET
    q_policy: str = "nearest-convergent"
    budget: float = DEFAULT_BUDGET
    seed: int = DEFAULT_SEED
    format: str = "json"

    def __post_init__(self):
        if self.X < 1 or self.Y < 0:
            raise ValueError("need X >= 1 and Y >= 0")
        if self.Y > self.X:    # the window (X-Y, X] would reach below 0
            raise ValueError(f"need Y <= X, got X={self.X} and Y={self.Y}")
        if self.q_policy not in Q_POLICIES:
            raise ValueError(f"q_policy must be one of {Q_POLICIES}")
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")
        if not (0.0 < self.delta <= 0.5):
            raise ValueError("delta must lie in (0, 1/2]")
        if not (0 < self.eps < math.inf):
            raise ValueError(f"eps must be positive and finite, got {self.eps!r}")
        if not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget!r}")
        if not (0.0 < self.err_target < 0.25):    # build_angle_oracle's range
            raise ValueError(f"err_target must lie in (0, 1/4), got {self.err_target!r}")
        try:    # the gate's largest power, L and the q window must be finite floats
            derived = (float(self.X) ** (2.0 / 3.0 + 10 * self.eps), self.L, *self.q_window())
        except (OverflowError, ZeroDivisionError):
            derived = (math.inf,)
        if not all(map(math.isfinite, derived)):
            raise ValueError(f"X={self.X}, Y={self.Y}, eps={self.eps!r} and delta={self.delta!r} "
                             f"give a non-finite X^(2/3+10eps), L = ceil(X^eps/delta) or q window")

    @property
    def U(self) -> float:
        return float(self.X) ** (1.0 / 3.0)

    @property
    def V(self) -> float:
        return self.U

    @property
    def L(self) -> int:
        return math.ceil(float(self.X) ** self.eps / self.delta)

    def q_window(self) -> tuple:
        """(lo, hi) of the q window Y / (delta X^{1/2-2eps}) <= q <= Y / (delta X^{1/2-3eps})."""
        Xf, Y, delta, eps = float(self.X), self.Y, self.delta, self.eps
        return Y / (delta * Xf ** (0.5 - 2 * eps)), Y / (delta * Xf ** (0.5 - 3 * eps))

    def as_dict(self) -> dict:
        """The config echo: every config key (alpha in its grammar), then U, V and L."""
        echo = {key: getattr(self, key) for key in _ECHO_KEYS}
        echo["alpha"] = self.alpha.canonical()
        return echo


def _number(key: str, value) -> float:
    """value, an int or a float, as a float; booleans and other types are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _integer(key: str, value) -> int:
    """value, an int or an integral float, as an int; booleans and other types are rejected."""
    if isinstance(value, int) and not isinstance(value, bool) or (
            isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ValueError(f"{key} must be an integer, got {value!r}")


def _alpha(key: str, value) -> AlphaSpec:
    if isinstance(value, AlphaSpec):
        return value
    if isinstance(value, str):
        return parse_alpha(value)
    raise ValueError(f"alpha must be an alpha spec string, got {value!r}")


# The config keys, in ExperimentConfig's field order, each with the reader of
# its JSON value; the keys without a default in ExperimentConfig are required.
READERS = {
    "X": _integer,
    "Y": _integer,
    "delta": _number,
    "eps": _number,
    "alpha": _alpha,
    "err_target": lambda key, value: (parse_precision(value) if isinstance(value, str)
                                      else _number(key, value)),
    "q_policy": lambda key, value: Q_POLICY_ALIASES.get(str(value), str(value)),
    "budget": _number,
    "seed": _integer,
    "format": lambda key, value: str(value),
}
_REQUIRED_KEYS = [f.name for f in fields(ExperimentConfig) if f.default is MISSING]
_DERIVED_KEYS = ("U", "V", "L")
_ECHO_KEYS = (*READERS, *_DERIVED_KEYS)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-shaped dict; unknown keys are rejected.

    X, Y and seed must be integers or integral floats, and delta, eps,
    budget and err_target numbers (err_target may also be a precision
    string such as '2^-40'); booleans are never accepted.  q_policy may be
    any key of Q_POLICY_ALIASES and is stored under its canonical name.
    Derived keys U, V, L are accepted only if they match their derived
    values (so an echoed report config round-trips).
    """
    unknown = set(data).difference(READERS, _DERIVED_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    config = ExperimentConfig(**{key: read(key, data[key])
                                 for key, read in READERS.items() if key in data})
    for key in _DERIVED_KEYS:
        if key in data:
            derived = getattr(config, key)
            if not math.isclose(float(data[key]), float(derived), rel_tol=1e-9):
                raise ValueError(f"derived key {key}={data[key]} does not match {derived}")
    return config


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-inequality verdicts plus the q window endpoints."""

    checks: tuple          # (name, ok, lhs, rhs) rows
    q_window: tuple        # (lo, hi)

    @property
    def ok(self) -> bool:
        return all(row[1] for row in self.checks)

    def violations(self) -> list:
        return [row[0] for row in self.checks if not row[1]]

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "lhs": lhs, "rhs": rhs}
                for name, ok, lhs, rhs in self.checks
            ],
            "q_window": list(self.q_window),
        }


def check_admissible(config: ExperimentConfig) -> AdmissibilityReport:
    """Evaluate every hypothesis inequality; total and side-effect free."""
    X, Y, delta, eps = float(config.X), float(config.Y), config.delta, config.eps
    y_floor = X ** (2.0 / 3.0 + 10 * eps)
    delta_floor = X ** (10 * eps) * max(X ** 0.25 / math.sqrt(Y) if Y > 0 else math.inf,
                                        X ** (2.0 / 3.0) / Y if Y > 0 else math.inf)
    checks = (
        ("X >= 10", X >= 10, X, 10.0),
        ("Y >= X^(2/3+10eps)", Y >= y_floor, Y, y_floor),
        ("Y <= X/2", Y <= X / 2, Y, X / 2),
        ("delta >= X^(10eps)*max(X^(1/4)Y^(-1/2), X^(2/3)/Y)",
         delta >= delta_floor, delta, delta_floor),
        ("delta <= 1/2", delta <= 0.5, delta, 0.5),
    )
    return AdmissibilityReport(checks=checks, q_window=config.q_window())


def require_admissible(config: ExperimentConfig, force: bool = False) -> AdmissibilityReport:
    """The admissibility gate: check_admissible, raising on a violation unless forced."""
    adm = check_admissible(config)
    if not adm.ok and not force:
        raise InadmissibleConfig("config violates: " + "; ".join(adm.violations()))
    return adm


def select_q(config: ExperimentConfig):
    """(Convergent, q_in_window) under the configured policy.

    strict-window raises on a miss; nearest-convergent picks the straddling
    convergent closest to the window midpoint on the log scale.
    """
    lo, hi = config.q_window()
    lo = max(1.0, lo)
    if hi < lo:
        hi = lo
    res = find_q_in_window(config.alpha, lo, hi)
    if res.ok:
        return res.found, True
    if config.q_policy == "strict-window":
        raise QWindowMiss(
            f"no convergent denominator in [{lo:.6g}, {hi:.6g}] "
            f"(straddle {res.below.q}, {res.above.q})")
    mid_log = 0.5 * (math.log(lo) + math.log(hi))
    below_gap = abs(math.log(res.below.q) - mid_log)
    above_gap = abs(math.log(res.above.q) - mid_log)
    pick = res.below if below_gap <= above_gap else res.above
    return pick, False
