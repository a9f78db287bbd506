"""Acceptance suite: the checks that gate a release of this laboratory.

Each criterion is a function returning a JSON-safe record with a `passed`
verdict and the measured quantities behind it.  Records carry no wall-clock
data, so a fixed seed reproduces the suite's JSON byte for byte (that
reproducibility is itself criterion 10).  Tolerances are pinned here as
module constants.
"""

from __future__ import annotations

import os
import random
import sys
import time
from contextlib import nullcontext
from math import gcd

import numpy as np

from .alpha import (
    AlphaSpec,
    build_angle_oracle,
    cf_terms,
    convergents,
    verify_convergent_pair,
)
from .config import DEFAULT_SEED, ExperimentConfig, check_admissible
from .expsum import CHUNK, MinSumInstance, empirical_constant, linear_exp_sums
from .reference import brute_force_quadruples, naive_exp_sums
from .report import report_to_json
from .sieve import mangoldt_sum_interval, small_tables
from .smoothing import build_kernel, f_direct_array, f_fourier_array
from .experiments import run_prime_count, run_smoothed_sum
from .vaughan import SumContext, VaughanParams, gamma_counts, suite_plan, vaughan_pieces

__all__ = ["run_acceptance", "CRITERIA"]

SQRT2 = AlphaSpec.sqrt(2)
GOLDEN = AlphaSpec.golden()

# the ten quadratic irrationals exercised by criterion 1
ALPHA_PANEL = (
    AlphaSpec.sqrt(2),
    AlphaSpec.sqrt(3),
    AlphaSpec.sqrt(5),
    AlphaSpec.sqrt(6),
    AlphaSpec.sqrt(7),
    AlphaSpec.sqrt(10),
    AlphaSpec.sqrt(13),
    AlphaSpec.golden(),
    AlphaSpec.surd(3, 1, 2, 13),
    AlphaSpec.surd(5, -2, 3, 3),
)

CONVERGENTS_PER_ALPHA = 50
POISSON_GRID = 10 ** 4
POISSON_CONFIGS = ((0.5, 50), (0.1, 200), (0.05, 600))
POISSON_SLACK = 1e-12
IDENTITY_LIMIT = 5000
IDENTITY_CUTS = ((4, 4), (10, 10), (17, 17))
IDENTITY_TOL = 1e-9
EXPSUM_INSTANCES = 10 ** 4
EXPSUM_MAX_LEN = 10 ** 4
EXPSUM_TOL = 1e-10
MINSUM_CONSTANT_CAP = 8.0
TWO_POINT_Q_CAP = 10 ** 4
SPLIT_RESIDUAL_TOL = 1e-9
PSI_X, PSI_Y, PSI_REL_TOL = 10 ** 7, 10 ** 5, 0.05
COUNT_REL_TOL = 0.15
SSUM_REL_TOL = 0.15
REPRODUCED = tuple(range(1, 10))  # the criteria whose JSON criterion 10 reproduces


def criterion_1(seed: int) -> dict:
    """Convergent invariants over the quadratic-irrational panel."""
    failures = []
    checked = 0
    for spec in ALPHA_PANEL:
        terms = cf_terms(spec, CONVERGENTS_PER_ALPHA + 1)
        convs = convergents(spec, CONVERGENTS_PER_ALPHA + 1)
        p_prev, q_prev = 1, 0
        for conv, a in zip(convs, terms):
            if conv.n == 0:
                expect_p, expect_q = a, 1
            else:
                expect_p = a * convs[conv.n - 1].p + p_prev
                expect_q = a * convs[conv.n - 1].q + q_prev
                p_prev, q_prev = convs[conv.n - 1].p, convs[conv.n - 1].q
            if (conv.p, conv.q) != (expect_p, expect_q) or gcd(conv.p, conv.q) != 1:
                failures.append((spec.canonical(), conv.n, "recurrence/gcd"))
        for cur, nxt in zip(convs, convs[1:]):
            checked += 1
            if not verify_convergent_pair(spec, cur, nxt):
                failures.append((spec.canonical(), cur.n, "approximation"))
    return {
        "criterion": 1,
        "name": "convergent invariants",
        "alphas": len(ALPHA_PANEL),
        "pairs_checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def criterion_2(seed: int) -> dict:
    """Poisson identity: direct vs Fourier form on a dense grid, as arrays."""
    grid = np.arange(POISSON_GRID) / POISSON_GRID
    rows = []
    ok = True
    for delta, L in POISSON_CONFIGS:
        kernel = build_kernel(delta, L)
        worst = float(np.abs(f_direct_array(grid, delta) - f_fourier_array(grid, kernel)).max())
        allowed = kernel.tail_bound + POISSON_SLACK
        rows.append({"delta": delta, "L": L, "sup_diff": worst,
                     "allowed": allowed, "tail_underflow": kernel.tail_underflow})
        ok = ok and worst <= allowed
    return {"criterion": 2, "name": "Poisson identity", "rows": rows, "passed": ok}


def criterion_3(seed: int) -> dict:
    """Exact decomposition identity for all n <= 5000 at three cuts."""
    tables = small_tables(IDENTITY_LIMIT)
    worst = 0.0
    failures = 0
    for U, V in IDENTITY_CUTS:
        a1, a2, a3 = vaughan_pieces(VaughanParams(U=U, V=V, X=IDENTITY_LIMIT), tables)
        residuals = np.abs(tables.lam - (a1 - a2 - a3))[U + 1:]
        worst = max(worst, float(residuals.max()))
        failures += int(np.count_nonzero(residuals > IDENTITY_TOL))
    return {
        "criterion": 3,
        "name": "decomposition identity",
        "cuts": list(IDENTITY_CUTS),
        "max_residual": worst,
        "failures": failures,
        "passed": failures == 0,
    }


def criterion_4(seed: int) -> dict:
    """Closed-form exponential sum vs naive, plus the sharp min bound.

    The instances go through the array kernel linear_exp_sums and the
    batched reference naive_exp_sums, CHUNK at a time, so that their
    temporaries stay within a few hundred kB.
    """
    rng = random.Random(seed)
    worst_diff = 0.0
    worst_excess = 0.0
    for start in range(0, EXPSUM_INSTANCES, CHUNK):
        cases = []
        for _ in range(min(CHUNK, EXPSUM_INSTANCES - start)):
            w = rng.uniform(-100.0, 100.0)
            z = w + rng.uniform(0.0, EXPSUM_MAX_LEN)
            cases.append((w, z, rng.uniform(-2.0, 2.0)))
        ws, zs, xs = (np.array(v) for v in zip(*cases))
        lo, hi = np.floor(ws), np.floor(zs)
        closed = linear_exp_sums(lo.astype(np.int64), hi.astype(np.int64), xs)
        worst_diff = max(worst_diff, float(np.abs(closed - naive_exp_sums(ws, zs, xs)).max()))
        nx = np.abs(xs - np.rint(xs))
        with np.errstate(divide="ignore"):          # nx = 0 caps at the count
            cap = np.minimum(hi - lo, 1.0 / (2.0 * nx))
        worst_excess = max(worst_excess, float((np.abs(closed) - cap).max()))
    return {
        "criterion": 4,
        "name": "exponential-sum oracle",
        "instances": EXPSUM_INSTANCES,
        "max_abs_diff": worst_diff,
        "max_bound_excess": worst_excess,
        "passed": worst_diff <= EXPSUM_TOL and worst_excess <= 1e-9,
    }


def criterion_5(seed: int) -> dict:
    """Standard estimate: measured constant on the shipped grid + proof structure."""
    instances = []
    for spec in (SQRT2, GOLDEN):
        qs = [c.q for c in convergents(spec, 12)]
        oracle = build_angle_oracle(spec, n_max=10 * max(qs))
        for q in qs:
            for M in (max(1, q // 4), max(1, q // 2), 2 * q, 10 * q):
                for N in (10, 10 ** 3, 10 ** 6):
                    instances.append(MinSumInstance(M=M, N=N, oracle=oracle, q=q))
    table = empirical_constant(instances)
    flagged = sum(row["switch_flags"] for row in table["rows"])

    rng = random.Random(seed)
    qs = [c.q for c in convergents(SQRT2, 20) if c.q <= TWO_POINT_Q_CAP]
    oracle = build_angle_oracle(SQRT2, n_max=2 * 10 ** 5)
    bucket_ok = True
    for q in qs:
        for _ in range(3):
            m0 = rng.randrange(0, 10 ** 5)
            v = oracle.fracs(np.arange(m0 + 1, m0 + q // 2 + 1))
            if np.bincount((v * q).astype(np.int64)).max(initial=0) > 2:
                bucket_ok = False
    return {
        "criterion": 5,
        "name": "standard estimate",
        "grid_size": len(instances),
        "max_ratio": table["max_ratio"],
        "switch_flags": flagged,
        "two_points_per_interval": bucket_ok,
        "passed": table["max_ratio"] <= MINSUM_CONSTANT_CAP and bucket_ok
                  and flagged == 0,
    }


SUITE_INSTANCES = (
    # X, Y, delta, eps
    (500, 150, 0.3, 0.05),
    (1000, 300, 0.3, 0.05),
)
BLOCK_KEYS = ("H", "M", "identity_residual", "cauchy_ok")  # what criterion 6 keeps of a block
GAMMA_INSTANCES = (
    # X, Y, M, H
    (256, 64, 32, 4),
    (500, 150, 16, 4),
)


def criterion_6(seed: int) -> dict:
    """Type II structure: split identity, Cauchy-Schwarz, quadruple counts."""
    rows = []
    ok = True
    for X, Y, delta, eps in SUITE_INSTANCES:
        config = ExperimentConfig(X=X, Y=Y, delta=delta, eps=eps, alpha=SQRT2)
        plan = suite_plan(SumContext(config))
        for block in (task.run() for task in plan if task.slot == "t2_blocks"):
            rows.append({"X": X, **{key: block[key] for key in BLOCK_KEYS}})
            ok = ok and block["identity_residual"] <= SPLIT_RESIDUAL_TOL and block["cauchy_ok"]
    gamma_rows = []
    for X, Y, M, H in GAMMA_INSTANCES:
        brute = brute_force_quadruples(X, Y, M, H)
        mismatch = 0
        total_fast = 0
        l_cap = 2 * X * H // M
        labels = range(-l_cap, l_cap + 1)
        for l, (g0, g1) in zip(labels, gamma_counts(labels, H, M, X, Y)):
            total_fast += g0 + g1
            if [g0, g1] != brute.get(l, [0, 0]):
                mismatch += 1
        mass = sum(a + b for a, b in brute.values())
        gamma_rows.append({"X": X, "M": M, "H": H, "mismatches": mismatch,
                           "mass_fast": total_fast, "mass_brute": mass})
        ok = ok and mismatch == 0 and total_fast == mass
    return {"criterion": 6, "name": "type II structure", "blocks": rows,
            "gamma": gamma_rows, "passed": ok}


def criterion_7(seed: int) -> dict:
    """psi in short intervals tracks the window length at desk scale."""
    measured = mangoldt_sum_interval(PSI_X, PSI_Y)
    deviation = abs(measured - PSI_Y)
    return {
        "criterion": 7,
        "name": "psi short interval",
        "X": PSI_X,
        "Y": PSI_Y,
        "psi_window": measured,
        "deviation": deviation,
        "allowed": PSI_REL_TOL * PSI_Y,
        "passed": deviation <= PSI_REL_TOL * PSI_Y,
    }


def criterion_8(seed: int) -> dict:
    """Prime counts with small angle vs 2 delta Y / log X, both alphas."""
    rows = []
    ok = True
    for spec in (SQRT2, GOLDEN):
        config = ExperimentConfig(X=10 ** 6, Y=10 ** 5, delta=0.05, eps=0.01,
                                  alpha=spec, seed=seed)
        report = run_prime_count(config, force=True)
        rel = abs(report.value - report.main_term) / report.main_term
        rows.append({"alpha": spec.canonical(), "count": report.value,
                     "main_term": report.main_term, "rel_dev": rel,
                     "boundary": report.bound_terms["boundary_count"]})
        ok = ok and rel <= COUNT_REL_TOL
    return {"criterion": 8, "name": "small-angle prime count", "rows": rows,
            "passed": ok}


def criterion_9(seed: int) -> dict:
    """Smoothed von Mangoldt sum vs delta * Y at the reference point."""
    config = ExperimentConfig(X=10 ** 6, Y=10 ** 5, delta=0.45, eps=0.01,
                              alpha=SQRT2, seed=seed)
    adm = check_admissible(config)
    report = run_smoothed_sum(config)
    rel = abs(report.value - report.main_term) / report.main_term
    return {
        "criterion": 9,
        "name": "smoothed sum main term",
        "admissible": adm.ok,
        "value": report.value,
        "main_term": report.main_term,
        "rel_dev": rel,
        "q_used": report.q_used,
        "q_in_window": report.q_in_window,
        "measured_exponent": report.measured_exponent,
        "passed": adm.ok and rel <= SSUM_REL_TOL,
    }


# The fresh pass: a new interpreter that imports the primeangle package
# found in the directory sys.argv[1] and writes the JSON of criteria 1-9 at
# seed sys.argv[2] to stdout.
FRESH_PASS_SOURCE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from primeangle.acceptance import REPRODUCED, verify_json\n"
    "sys.stdout.buffer.write(verify_json(REPRODUCED, int(sys.argv[2])).encode())\n"
)


def fresh_hash_seed(caller: str | None) -> str:
    """PYTHONHASHSEED of the fresh pass, given the caller's: fixed, and never equal to it."""
    base = int(caller) if caller and caller.isdigit() else 0
    return str((base + 1) % 2 ** 32)


class FreshPass:
    """``verify_json(REPRODUCED, seed)`` in a fresh interpreter, started at once.

    The interpreter imports the same copy of primeangle as this process,
    under another PYTHONHASHSEED, so the two passes share no module cache
    and no hash order.  ``result()`` waits for its JSON; leaving the
    ``with`` block kills the process if it still runs, and reaps it.
    """

    def __init__(self, seed: int):
        import subprocess  # only a run holding criterion 10 starts a process

        package_dir = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ,
                   PYTHONHASHSEED=fresh_hash_seed(os.environ.get("PYTHONHASHSEED")))
        self.process = subprocess.Popen(
            [sys.executable, "-c", FRESH_PASS_SOURCE, package_dir, str(seed)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env)

    def result(self) -> str:
        out, err = self.process.communicate()
        if self.process.returncode != 0:
            lines = err.decode(errors="replace").strip().splitlines() or ["no message"]
            raise RuntimeError(f"the fresh pass of criteria 1-9 exited with code "
                               f"{self.process.returncode}: {lines[-1]}")
        return out.decode()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.process.returncode is None:
            self.process.kill()
            self.process.communicate()
        return False


def criterion_10(seed: int, first: str | None = None, fresh: FreshPass | None = None) -> dict:
    """Reproducibility: criteria 1-9 give byte-identical JSON in a fresh process.

    ``fresh`` is the FreshPass the calling run started at its top, and
    ``first`` the JSON of the records it made for criteria 1-9 meanwhile.
    Called on its own, the criterion starts the fresh pass and makes the
    first pass here while the other runs.
    """
    if fresh is None:
        with FreshPass(seed) as fresh:
            return criterion_10(seed, first, fresh)
    if first is None:
        first = verify_json(criteria=REPRODUCED, seed=seed)
    second = fresh.result()
    return {
        "criterion": 10,
        "name": "byte-identical reports",
        "bytes": len(first),
        "passed": first == second,
    }


CRITERIA = {
    1: criterion_1,
    2: criterion_2,
    3: criterion_3,
    4: criterion_4,
    5: criterion_5,
    6: criterion_6,
    7: criterion_7,
    8: criterion_8,
    9: criterion_9,
    10: criterion_10,
}


def run_acceptance(criteria=None, seed: int = DEFAULT_SEED, progress=None) -> dict:
    """Run the requested criteria (all when ``criteria`` is None) and collect verdicts.

    With a ``progress`` stream, each criterion prints a [PASS]/[FAIL] line
    with its wall time there; the returned record carries no times.  When
    the run holds criterion 10, the fresh pass of criteria 1-9 starts
    before any criterion runs, and is reaped however the run ends; when the
    run also holds criteria 1-9, their records here are the first pass.
    """
    wanted = sorted(CRITERIA) if criteria is None else sorted(set(criteria))
    if not wanted:
        raise ValueError("no criteria selected")
    unknown = [k for k in wanted if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criteria: {unknown}")
    results = []
    with (FreshPass(seed) if 10 in wanted else nullcontext()) as fresh:
        for k in wanted:
            t0 = time.perf_counter()
            args = (seed,)
            if k == 10:
                first = (report_to_json(_document(seed, results))
                         if wanted[:9] == list(REPRODUCED) else None)
                args += (first, fresh)
            record = CRITERIA[k](*args)  # looked up per call: tracers swap the entries
            if progress is not None:
                status = "PASS" if record["passed"] else "FAIL"
                print(f"[{status}] criterion {k:2d}: {record['name']} "
                      f"({time.perf_counter() - t0:.2f}s)", file=progress)
            results.append(record)
    return _document(seed, results)


def _document(seed: int, records: list) -> dict:
    return {
        "seed": seed,
        "criteria": records,
        "all_passed": all(r["passed"] for r in records),
    }


def verify_json(criteria=None, seed: int = DEFAULT_SEED) -> str:
    """Deterministic JSON document of an acceptance run."""
    return report_to_json(run_acceptance(criteria=criteria, seed=seed))
