"""Seeded inputs for the benchmark workloads.

A workload turns ``(seed, size)`` into the argv lists handed to
``primeangle.cli.main`` and, for ``sweep``, the points file.  The program
sees nothing else.  The same arguments always give the same inputs; they do
not depend on the clock, the process or the hash seed.

``size="full"`` is what the benchmark measures; ``size="smoke"`` is a
scaled-down copy of each workload for the harness self-tests.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

# One sentence per workload: why it is in the benchmark.  BENCHMARK.json
# carries the same text as each workload's "why".
WHY = {
    "window": "count and ssum at X~1e9 and X~1e12 with Y=1e7, the paper's headline "
              "experiment: classification dominates the first point, the sieve the second",
    "sweep": "a few hundred short windows through sweep --format csv, where per-call fixed "
             "costs (base-prime loop, oracle build, config parsing) dominate",
    "bounds": "the type I/II bound suite on the ladder X~1e3, 4e3, 1.6e4, where expsum "
              "and vaughan take nearly all the time and the window sieve is unused",
    "verify": "all ten acceptance criteria, the only workload for acceptance and reference, "
              "and the scalar entry points of the hot layers",
}
WORKLOADS = tuple(WHY)
SIZES = ("full", "smoke")

WINDOW_EPS = 0.01
COUNT_DELTA = 0.05
SSUM_DELTA = 0.45
SWEEP_POINTS = {"full": 300, "smoke": 12}
SWEEP_LOG10_X = {"full": (5.0, 10.0), "smoke": (5.0, 7.0)}
SWEEP_Y = (1_000, 30_000)
SWEEP_DELTAS = (0.05, 0.1, 0.45)
BOUNDS_LADDER = {"full": (1000, 4000, 16000), "smoke": (500, 1000)}
BOUNDS_DELTA = 0.3
BOUNDS_EPS = 0.05
SMOKE_CRITERIA = "1,7,8"


@dataclass(frozen=True)
class Call:
    """One ``primeangle`` invocation; ``out`` names its --out file."""

    kind: str          # the CLI subcommand
    argv: tuple
    out: str


@dataclass
class Unit:
    """Everything one workload execution hands to the program."""

    workload: str
    seed: int
    size: str
    calls: list
    points: list = field(default_factory=list)   # sweep points file contents
    n_points: int = 0                             # work items counted by points_per_s

    def argvs(self, directory: str) -> list:
        """argv lists with the points file and --out paths under ``directory``."""
        out = []
        for call in self.calls:
            argv = [a.replace("{points}", os.path.join(directory, "points.json"))
                    for a in call.argv]
            out.append(argv + ["--out", os.path.join(directory, call.out)])
        return out

    def write_inputs(self, directory: str) -> None:
        if self.points:
            with open(os.path.join(directory, "points.json"), "w", encoding="utf-8") as fh:
                json.dump(self.points, fh)


def seed_range(text: str) -> list:
    """Seeds from "7" or "1-10"."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def alpha_panel() -> list:
    """The criterion-1 panel of quadratic irrationals, as --alpha strings."""
    from primeangle.acceptance import ALPHA_PANEL
    return [spec.canonical() for spec in ALPHA_PANEL]


def _window_args(kind, X, Y, delta, alpha):
    return (kind, "--x", str(X), "--y", str(Y), "--delta", repr(delta),
            "--eps", repr(WINDOW_EPS), "--alpha", alpha, "--force")


def _window(rng, size, panel):
    if size == "full":
        points = [(10 ** 9 + rng.randrange(10 ** 6), 10 ** 7),
                  (10 ** 12 + rng.randrange(10 ** 9), 10 ** 7)]
    else:
        points = [(10 ** 7 + rng.randrange(10 ** 4), 10 ** 5),
                  (10 ** 9 + rng.randrange(10 ** 6), 10 ** 5)]
    calls = []
    for i, (X, Y) in enumerate(points):
        alpha = rng.choice(panel)
        calls.append(Call("count", _window_args("count", X, Y, COUNT_DELTA, alpha),
                          f"count{i}.json"))
        calls.append(Call("ssum", _window_args("ssum", X, Y, SSUM_DELTA, alpha),
                          f"ssum{i}.json"))
    return calls, [], len(points)


def _stratified(rng, n):
    """n draws in [0, 1), one per stratum [i/n, (i+1)/n), in shuffled order.

    Stratifying keeps the total work of a sweep nearly the same for every
    seed, so run-to-run spread measures the program, not the draw.
    """
    draws = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(draws)
    return draws


def _balanced(rng, values, n):
    """n picks that use each value equally often, in shuffled order."""
    picks = [values[i % len(values)] for i in range(n)]
    rng.shuffle(picks)
    return picks


def _sweep(rng, size, panel, seed):
    n = SWEEP_POINTS[size]
    lo, hi = SWEEP_LOG10_X[size]
    y_lo, y_hi = SWEEP_Y
    xs = _stratified(rng, n)
    ys = _stratified(rng, n)
    deltas = _balanced(rng, SWEEP_DELTAS, n)
    alphas = _balanced(rng, panel, n)
    points = []
    for u, v, delta, alpha in zip(xs, ys, deltas, alphas):
        points.append({
            "X": int(10 ** (lo + (hi - lo) * u)),
            "Y": int(y_lo + (y_hi - y_lo) * v),
            "delta": delta,
            "eps": WINDOW_EPS,
            "alpha": alpha,
            "seed": seed,
        })
    call = Call("sweep", ("sweep", "--force", "--format", "csv", "--points", "{points}"),
                "sweep.csv")
    return [call], points, n


def _bounds(rng, size, panel):
    calls = []
    ladder = BOUNDS_LADDER[size]
    alpha = rng.choice(panel)
    for i, base in enumerate(ladder):
        # offsets below 1% keep L, the dyadic M grid and the gamma-sample
        # blocks the same for every seed
        X = base + rng.randrange(base // 100)
        argv = ("bounds", "--x", str(X), "--y", str(X // 4), "--delta", repr(BOUNDS_DELTA),
                "--eps", repr(BOUNDS_EPS), "--alpha", alpha, "--force")
        calls.append(Call("bounds", argv, f"bounds{i}.json"))
    return calls, [], len(ladder)


def _verify(seed, size):
    argv = ("verify", "--seed", str(seed))
    if size == "smoke":
        argv += ("--criteria", SMOKE_CRITERIA)
        n = len(SMOKE_CRITERIA.split(","))
    else:
        n = 10
    return [Call("verify", argv, "verify.json")], [], n


def generate(workload: str, seed: int, size: str = "full", panel=None) -> Unit:
    """The inputs of one workload execution, from the seed alone."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError("seed must be an integer")
    panel = list(panel) if panel is not None else alpha_panel()
    rng = random.Random(f"primeangle-bench:{workload}:{seed}")
    if workload == "window":
        calls, points, n = _window(rng, size, panel)
    elif workload == "sweep":
        calls, points, n = _sweep(rng, size, panel, seed)
    elif workload == "bounds":
        calls, points, n = _bounds(rng, size, panel)
    else:
        calls, points, n = _verify(seed, size)
    return Unit(workload=workload, seed=seed, size=size, calls=calls,
                points=points, n_points=n)
