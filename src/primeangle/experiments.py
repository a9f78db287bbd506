"""End-to-end experiment runners: smoothed sums, prime counts, bound suites, sweeps.

Each runner resolves a configuration into a SumReport whose main term comes
from the closed-form prediction (delta * Y for the smoothed von Mangoldt
sum, 2 delta Y / log X for the prime count) and records the denominator q,
its search window, condition flags, and the bound-chain diagnostics.  All
runners are deterministic for a fixed configuration; sweeps preserve input
order and isolate per-point failures as error codes.
"""

from __future__ import annotations

import math

import numpy as np

from .alpha import build_angle_oracle
from .config import (
    ExperimentConfig,
    InadmissibleConfig,
    QWindowMiss,
    config_from_dict,
    require_admissible,
    select_q,
)
from .report import SumReport
from .sieve import ExactSum, primes_with_small_angle, sieve_segments
from .smoothing import check_direct_delta, f_direct_array
from .vaughan import BudgetExceeded, SumContext, charge, suite_plan

__all__ = [
    "run_smoothed_sum",
    "run_prime_count",
    "run_bound_suite",
    "run_tasks",
    "sweep",
    "attach_envelope",
]


class _PrimeCount:
    """The window stage of run_prime_count: verdicts on the pass's primes and dists."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.count = self.boundary = self.interval_primes = 0

    def add(self, segment, oracle, primes, x) -> None:
        res = primes_with_small_angle(segment, oracle, self.config.delta, (primes, x))
        self.count += res.count
        self.boundary += res.boundary_count
        self.interval_primes += primes.size

    def fields(self) -> dict:
        X, Y, delta = self.config.X, self.config.Y, self.config.delta
        return {"value": float(self.count), "main_term": 2 * delta * Y / math.log(X),
                "bound_terms": {"boundary_count": float(self.boundary),
                                "interval_primes": float(self.interval_primes)}}


class _SmoothedSum:
    """The window stage of run_smoothed_sum: F over the pass's dists and its higher powers'."""

    def __init__(self, config: ExperimentConfig):
        check_direct_delta(config.delta)
        self.config = config
        self.value_sum, self.psi_sum = ExactSum(), ExactSum()

    def add(self, segment, oracle, primes, x) -> None:
        powers, lam = segment.mangoldt_terms(primes)
        if powers.size:
            x = np.concatenate([x, oracle.dists(powers)])
        weights = f_direct_array(x, self.config.delta)
        weights *= lam
        self.value_sum.add(weights)
        self.psi_sum.add(lam)

    def fields(self) -> dict:
        X, Y, delta = self.config.X, self.config.Y, self.config.delta
        value, psi_window = self.value_sum.value(), self.psi_sum.value()
        error_sum = value - delta * psi_window
        err_ratio = abs(error_sum) / (delta * Y)
        return {"value": value, "main_term": delta * Y,
                "measured_exponent": -math.log(err_ratio) / math.log(X) if err_ratio else None,
                "bound_terms": {"psi_window": psi_window, "error_sum": error_sum,
                                "error_over_main": err_ratio}}


WINDOW_KINDS = {"prime_count": _PrimeCount, "smoothed_sum": _SmoothedSum}


def _window_reports(config: ExperimentConfig, kinds, force: bool) -> dict:
    """One pass over the window (X-Y, X]: {kind: SumReport} for each of ``kinds``.

    An empty window (Y = 0) gives empty reports.  Otherwise each kind's
    stage, WINDOW_KINDS[kind](config), is built and makes its own check (a
    smoothed sum's delta must have a finite direct form).  Then, once for
    all kinds: the admissibility gate, the refusal of a forced window
    reaching below 2 (X - Y < 2), the budget, q and the angle oracle.  Each
    segment's primes and their dists are computed once and handed to every
    stage's add(segment, oracle, primes, x); each report takes its stage's
    fields().  A kind not asked for costs nothing.
    """
    X, Y = config.X, config.Y
    if Y == 0:
        return {kind: SumReport(kind=kind, value=0.0, main_term=0.0, ratio=None,
                                flags=["empty-window"]) for kind in kinds}
    stages = {kind: WINDOW_KINDS[kind](config) for kind in kinds}
    adm = require_admissible(config, force)
    if X - Y < 2:    # the window sieve needs its left end X - Y >= 2
        raise ValueError(f"need X - Y >= 2 to sieve the window, got X={X} and Y={Y}")
    charge("window", Y, config.budget)
    conv, in_window = select_q(config)
    oracle = build_angle_oracle(config.alpha, n_max=X, err_target=config.err_target)
    for segment in sieve_segments(X - Y, X):
        primes = segment.primes()
        x = oracle.dists(primes)
        for stage in stages.values():
            stage.add(segment, oracle, primes, x)
    flags = [] if in_window else ["q-out-of-window"]
    if not adm.ok:
        flags.append("inadmissible-forced")
    return {kind: SumReport(kind=kind, q_used=conv.q, q_window=config.q_window(),
                            q_in_window=in_window, flags=list(flags), **stage.fields())
            for kind, stage in stages.items()}


def run_smoothed_sum(config: ExperimentConfig, force: bool = False) -> SumReport:
    """Smoothed count: sum of Lambda(n) F(n alpha) over (X-Y, X] vs delta*Y.

    F is evaluated directly at the certified ||n alpha|| of every prime
    power of a segment at once, and both sums are added exactly
    (ExactSum), so they are correctly rounded whatever the segment size.
    The report also carries the centered error sum
    sum Lambda(n) (F(n alpha) - delta) and its measured decay exponent.
    """
    return _window_reports(config, ("smoothed_sum",), force)["smoothed_sum"]


def run_prime_count(config: ExperimentConfig, force: bool = False) -> SumReport:
    """Prime count with small angle: #{p in (X-Y, X]: ||p alpha|| < delta}.

    Main term 2 delta Y / log X.  The count is exact at any err_target,
    which trades only speed: bound_terms' boundary_count counts the
    primes decided in alpha past the float filter (none at the default).
    """
    return _window_reports(config, ("prime_count",), force)["prime_count"]


def run_tasks(config: ExperimentConfig, make_plan, force: bool = False):
    """Gate config, build its SumContext, charge every task of make_plan(ctx), then run them.

    Returns (adm, q_fields, fragments): the AdmissibilityReport, the q_used,
    q_window and q_in_window of the context, and the fragments in plan order.
    """
    adm = require_admissible(config, force)
    ctx = SumContext(config)
    plan = make_plan(ctx)
    for task in plan:
        task.charge()
    q_fields = {"q_used": ctx.q, "q_window": list(config.q_window()),
                "q_in_window": ctx.q_in_window}
    return adm, q_fields, [task.run() for task in plan]


def run_bound_suite(config: ExperimentConfig, force: bool = False) -> dict:
    """Dyadic grid of type I/II blocks with their bound chains: the tasks of vaughan.suite_plan.

    s1; for each dyadic H, the exact T1(H) with its min-sum comparator; for
    each (H, M) with X^{1/3} <= M <= X^{2/3}, the Cauchy-Schwarz opening
    T3 = T4 + T5, the exact T2(H, M) read off its rows, quadruple-count
    samples where gamma_enumerable allows, and the closed-form chain terms.
    Every task is charged before the first one runs (run_tasks), and the
    fragments are assembled in plan order.
    """
    adm, q_fields, (type_i, *blocks) = run_tasks(config, suite_plan, force)
    result = {**q_fields, "admissible": adm.ok, **type_i,  # s1 and t1_blocks
              "t2_blocks": blocks, "notices": []}
    if not blocks:
        result["notices"].append("empty-grid: no dyadic M with X^(1/3) <= M <= X^(2/3)")
    # a block whose rows all vanish (T3 = 0) has no pairs either: each pair's n1 lies in a row
    elif all(block["t3"] == 0.0 for block in blocks):
        result["notices"].append("empty-grid: every type II block had empty ranges")
    return result


ERROR_CODES = {
    InadmissibleConfig: "inadmissible",
    BudgetExceeded: "budget-exceeded",
    QWindowMiss: "q-window-miss",
}


def sweep(configs, runs=tuple(WINDOW_KINDS), force: bool = False) -> list:
    """Run each config point in order; failures become error rows.

    Returns one row per input: {"index", "config", "reports" | "error"}.
    Output order always equals input order; a row's reports follow
    ``runs`` (duplicates collapsed), and its window kinds share one pass.
    """
    runs = tuple(dict.fromkeys(runs))
    unknown = [r for r in runs if r not in WINDOW_KINDS and r != "bound_suite"]
    if unknown:
        raise ValueError(f"unknown runs: {unknown}")
    window_kinds = tuple(r for r in runs if r in WINDOW_KINDS)
    rows = []
    for index, config in enumerate(configs):
        row = {"index": index}
        try:
            if not isinstance(config, ExperimentConfig):
                config = config_from_dict(config)
            row["config"] = config.as_dict()
            reports = {}
            for name in runs:
                if name == "bound_suite":
                    reports[name] = run_bound_suite(config, force=force)
                elif name not in reports:
                    for kind, report in _window_reports(config, window_kinds, force).items():
                        reports[kind] = report.as_dict()
            row["reports"] = {name: reports[name] for name in runs}
        except Exception as exc:  # per-point isolation is the contract
            row["error"] = ERROR_CODES.get(type(exc), "error")
            row["error_detail"] = str(exc)
        rows.append(row)
    return rows


def attach_envelope(report, config: ExperimentConfig) -> dict:
    """Top-level report document: report fields + seed + config echo."""
    body = report.as_dict() if isinstance(report, SumReport) else dict(report)
    body["seed"] = config.seed
    body["config_echo"] = config.as_dict()
    return body
