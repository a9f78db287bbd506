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
from dataclasses import dataclass

from .alpha import AlphaSpec, find_q_in_window, parse_alpha

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
DEFAULT_ERR_TARGET = 2.0 ** -40
DEFAULT_BUDGET = 1e9

Q_POLICIES = ("strict-window", "nearest-convergent")
Q_POLICY_ALIASES = {"strict": "strict-window", "nearest": "nearest-convergent",
                    **{policy: policy for policy in Q_POLICIES}}
FORMATS = ("json", "csv")


class InadmissibleConfig(ValueError):
    """Configuration violates a stated hypothesis and force was not set."""


class QWindowMiss(ValueError):
    """strict-window policy found no convergent denominator in the window."""


def parse_precision(text) -> float:
    """Accept '2^-40' style powers of two or plain floats."""
    if isinstance(text, (int, float)):
        return float(text)
    text = text.strip()
    if text.startswith("2^"):
        try:
            return 2.0 ** int(text[2:])
        except (ValueError, OverflowError):
            raise ValueError(f"precision {text!r} is not a float-sized 2^<integer>") from None
    return float(text)


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

    def q_window(self):
        lo = self.Y / (self.delta * float(self.X) ** (0.5 - 2 * self.eps))
        hi = self.Y / (self.delta * float(self.X) ** (0.5 - 3 * self.eps))
        return lo, hi

    def as_dict(self) -> dict:
        return {
            "X": self.X,
            "Y": self.Y,
            "delta": self.delta,
            "eps": self.eps,
            "alpha": self.alpha.canonical(),
            "err_target": self.err_target,
            "q_policy": self.q_policy,
            "budget": self.budget,
            "seed": self.seed,
            "format": self.format,
            "U": self.U,
            "V": self.V,
            "L": self.L,
        }


_REQUIRED_KEYS = {"X", "Y", "delta", "eps", "alpha"}
_OPTIONAL_KEYS = {"err_target", "q_policy", "budget", "seed", "format"}
_DERIVED_KEYS = {"U", "V", "L"}


def _number(key: str, value, integral: bool = False):
    """value as a float, or as an int if ``integral`` (an int or an integral float).

    Booleans, strings and other types are rejected.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not integral:
            return float(value)
        if isinstance(value, int) or value.is_integer():
            return int(value)
    raise ValueError(f"{key} must be {'an integer' if integral else 'a number'}, got {value!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from a JSON-shaped dict; unknown keys are rejected.

    X, Y and seed must be integers or integral floats, and delta, eps,
    budget and err_target numbers (err_target may also be a precision
    string such as '2^-40'); booleans are never accepted.  q_policy may be
    any key of Q_POLICY_ALIASES and is stored under its canonical name.
    Derived keys U, V, L are accepted only if they match their derived
    values (so an echoed report config round-trips).
    """
    unknown = set(data) - _REQUIRED_KEYS - _OPTIONAL_KEYS - _DERIVED_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - set(data)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    alpha = data["alpha"]
    if isinstance(alpha, str):
        alpha = parse_alpha(alpha)
    elif not isinstance(alpha, AlphaSpec):
        raise ValueError(f"alpha must be an alpha spec string, got {alpha!r}")
    kwargs = {
        "X": _number("X", data["X"], integral=True),
        "Y": _number("Y", data["Y"], integral=True),
        "delta": _number("delta", data["delta"]),
        "eps": _number("eps", data["eps"]),
        "alpha": alpha,
    }
    if "err_target" in data:
        err = data["err_target"]
        kwargs["err_target"] = (parse_precision(err) if isinstance(err, str)
                                else _number("err_target", err))
    if "q_policy" in data:
        policy = str(data["q_policy"])
        kwargs["q_policy"] = Q_POLICY_ALIASES.get(policy, policy)
    if "format" in data:
        kwargs["format"] = str(data["format"])
    if "budget" in data:
        kwargs["budget"] = _number("budget", data["budget"])
    if "seed" in data:
        kwargs["seed"] = _number("seed", data["seed"], integral=True)
    config = ExperimentConfig(**kwargs)
    for key in _DERIVED_KEYS & set(data):
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
