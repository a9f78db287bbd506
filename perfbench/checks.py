"""Output checks behind the benchmark's ``failed`` count.

Every call of a workload unit is checked after the timed section:

* ``extract`` pulls the checked fields out of the files the program wrote;
* ``compare`` holds them to the outputs the seed commit gave for the same
  seed, kept in ``pinned/<workload>.json``: exactly for counts, boundary
  counts, interval prime counts and gamma samples, within 1e-12 relative
  for ssum values and psi_window, within 1e-8 for the s1/t1/t2 values;
* ``invariants`` checks what must hold for every seed;
* ``spot_check_window`` re-derives a seeded sample of window primes and
  their ``||p*alpha|| < delta`` verdicts by independent exact arithmetic.

Each returns one list of failure messages per call.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from fractions import Fraction

PINNED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")

MAIN_TERM_TOL = 0.15        # acceptance.COUNT_REL_TOL and SSUM_REL_TOL
IDENTITY_TOL = 1e-9         # acceptance.SPLIT_RESIDUAL_TOL
SSUM_REL = 1e-12
TYPE_SUM_TOL = 1e-8
SPOT_SAMPLE = 6             # primes and composites re-checked per count window


def read_outputs(unit, directory) -> list:
    """The text each call wrote to its --out file, or None if it wrote none."""
    texts = []
    for call in unit.calls:
        path = os.path.join(directory, call.out)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                texts.append(fh.read())
        else:
            texts.append(None)
    return texts


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _num(text):
    return float(text) if text not in ("", None) else None


# one list per sweep row, in this column order (compact enough to pin)
SWEEP_COLUMNS = (
    ("index", "index"),
    ("error", "error"),
    ("count", "reports.prime_count.value"),
    ("boundary_count", "reports.prime_count.bound_terms.boundary_count"),
    ("interval_primes", "reports.prime_count.bound_terms.interval_primes"),
    ("ssum", "reports.smoothed_sum.value"),
    ("psi_window", "reports.smoothed_sum.bound_terms.psi_window"),
)
COL = {name: i for i, (name, _) in enumerate(SWEEP_COLUMNS)}


def _sweep_rows(text):
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        cells = [row.get(header, "") for _, header in SWEEP_COLUMNS]
        rows.append([int(cells[0]), cells[1]] + [_num(c) for c in cells[2:]])
    return rows


def _skeleton(obj):
    """``obj`` with every float dropped: the verdicts, names and integers."""
    if isinstance(obj, dict):
        return {k: _skeleton(v) for k, v in obj.items() if not isinstance(v, float)}
    if isinstance(obj, list):
        return [_skeleton(v) for v in obj if not isinstance(v, float)]
    return obj


def extract(call, text):
    """The checked fields of one call's output, as JSON-safe data."""
    if call.kind == "count":
        doc = json.loads(text)
        return {"count": doc["value"], "main_term": doc["main_term"],
                "boundary_count": doc["bound_terms"]["boundary_count"],
                "interval_primes": doc["bound_terms"]["interval_primes"]}
    if call.kind == "ssum":
        doc = json.loads(text)
        return {"value": doc["value"], "main_term": doc["main_term"],
                "psi_window": doc["bound_terms"]["psi_window"]}
    if call.kind == "sweep":
        return {"rows": _sweep_rows(text)}
    if call.kind == "bounds":
        doc = json.loads(text)
        blocks = doc["t2_blocks"]
        return {
            "s1": doc["s1"]["value"],
            "t1": [b["value"] for b in doc["t1_blocks"]],
            "t2": [b["t2"]["value"] for b in blocks],
            "gamma_samples": [b.get("gamma_samples") for b in blocks],
            "cauchy_ok": [b["cauchy_ok"] for b in blocks],
            "identity_residual": [b["identity_residual"] for b in blocks],
        }
    if call.kind == "verify":
        return {"skeleton": _skeleton(json.loads(text))}
    raise ValueError(f"no extractor for {call.kind!r}")


# ---------------------------------------------------------------------------
# comparisons against the seed commit
# ---------------------------------------------------------------------------

def load_pinned(workload, seed, size):
    """The seed commit's extracted outputs for this seed, or None if not pinned."""
    if size != "full":
        return None
    path = os.path.join(PINNED_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get(str(seed))


def _close(a, b, rel, abs_tol=0.0):
    return a is not None and b is not None and math.isclose(a, b, rel_tol=rel,
                                                            abs_tol=abs_tol)


def compare(call, got, want) -> list:
    bad = []

    def exact(label, a, b):
        if a != b:
            bad.append(f"{label}: {a!r} != pinned {b!r}")

    def near(label, a, b, rel, abs_tol=0.0):
        if not _close(a, b, rel, abs_tol):
            bad.append(f"{label}: {a!r} vs pinned {b!r} (rel tol {rel:g})")

    if call.kind == "count":
        for key in ("count", "boundary_count", "interval_primes"):
            exact(key, got[key], want[key])
    elif call.kind == "ssum":
        for key in ("value", "psi_window"):
            near(key, got[key], want[key], SSUM_REL)
    elif call.kind == "sweep":
        if len(got["rows"]) != len(want["rows"]):
            bad.append(f"rows: {len(got['rows'])} != pinned {len(want['rows'])}")
        for g, w in zip(got["rows"], want["rows"]):
            i = w[COL["index"]]
            for key in ("index", "error", "count", "boundary_count", "interval_primes"):
                exact(f"row {i} {key}", g[COL[key]], w[COL[key]])
            for key in ("ssum", "psi_window"):
                near(f"row {i} {key}", g[COL[key]], w[COL[key]], SSUM_REL)
    elif call.kind == "bounds":
        near("s1", got["s1"], want["s1"], TYPE_SUM_TOL, TYPE_SUM_TOL)
        for key in ("t1", "t2"):
            if len(got[key]) != len(want[key]):
                bad.append(f"{key}: {len(got[key])} blocks != pinned {len(want[key])}")
            for j, (a, b) in enumerate(zip(got[key], want[key])):
                near(f"{key}[{j}]", a, b, TYPE_SUM_TOL, TYPE_SUM_TOL)
        exact("gamma_samples", got["gamma_samples"], want["gamma_samples"])
    elif call.kind == "verify":
        exact("verify document (floats dropped)", got["skeleton"], want["skeleton"])
    return bad


# ---------------------------------------------------------------------------
# invariants for every seed
# ---------------------------------------------------------------------------

def invariants(call, got) -> list:
    bad = []
    if call.kind == "count":
        if got["boundary_count"] != 0:
            bad.append(f"boundary_count {got['boundary_count']} != 0")
        if got["count"] > got["interval_primes"]:
            bad.append("count exceeds interval_primes")
        if abs(got["count"] - got["main_term"]) > MAIN_TERM_TOL * got["main_term"]:
            bad.append(f"count {got['count']} off main term {got['main_term']}")
    elif call.kind == "ssum":
        if abs(got["value"] - got["main_term"]) > MAIN_TERM_TOL * got["main_term"]:
            bad.append(f"ssum {got['value']} off main term {got['main_term']}")
    elif call.kind == "sweep":
        for row in got["rows"]:
            i = row[COL["index"]]
            if row[COL["error"]]:
                bad.append(f"row {i}: error {row[COL['error']]}")
            elif row[COL["boundary_count"]] != 0:
                bad.append(f"row {i}: boundary_count {row[COL['boundary_count']]} != 0")
            elif row[COL["count"]] > row[COL["interval_primes"]]:
                bad.append(f"row {i}: count exceeds interval_primes")
        if [r[COL["index"]] for r in got["rows"]] != list(range(len(got["rows"]))):
            bad.append("rows out of input order")
    elif call.kind == "bounds":
        if not all(got["cauchy_ok"]):
            bad.append("a cauchy_ok flag is false")
        worst = max(got["identity_residual"], default=0.0)
        if worst > IDENTITY_TOL:
            bad.append(f"identity_residual {worst} > {IDENTITY_TOL}")
    elif call.kind == "verify":
        if not got["skeleton"].get("all_passed"):
            bad.append("all_passed is false")
    return bad


# ---------------------------------------------------------------------------
# spot checks of window primes
# ---------------------------------------------------------------------------

def _flag(argv, name):
    return argv[argv.index(name) + 1]


def exact_below(alpha, p: int, delta: float) -> bool:
    """||p*alpha|| < delta, decided by exact comparisons of alpha with rationals.

    With delta = N/D exactly (a float is a dyadic rational), the condition
    is (k*D - N)/(p*D) < alpha < (k*D + N)/(p*D) for the integer k nearest
    p*alpha; k comes from a convergent and its neighbours are tried too.
    """
    from primeangle.alpha import compare_to_rational, convergent_stream

    frac = Fraction(delta)
    N, D = frac.numerator, frac.denominator
    # |p*alpha - p*P/Q| < p/Q^2 < 1/4, so k0 is within one of the nearest k
    conv = next(c for c in convergent_stream(alpha) if c.q * c.q > 4 * p)
    k0 = round(Fraction(p * conv.p, conv.q))
    for k in (k0 - 1, k0, k0 + 1):
        if (compare_to_rational(alpha, k * D - N, p * D) > 0
                and compare_to_rational(alpha, k * D + N, p * D) < 0):
            return True
    return False


def spot_check_window(unit) -> list:
    """Check sampled primes of each count call's window, one list per call.

    For a seeded sample of primes and composites from the program's sieve
    of the window, primality is re-derived by trial division
    (``reference.is_prime_trial``); for the primes, the program's
    certified verdict ``||p*alpha|| < delta`` is re-derived by
    ``exact_below``.  Sampled numbers come from short sub-windows so the
    check stays cheap next to the timed calls.
    """
    from primeangle.alpha import build_angle_oracle, classify_against_threshold, parse_alpha
    from primeangle.reference import is_prime_trial
    from primeangle.sieve import sieve_interval

    rng = random.Random(f"primeangle-bench-spot:{unit.seed}")
    out = []
    for call in unit.calls:
        bad = []
        if call.kind == "count":
            X, Y = int(_flag(call.argv, "--x")), int(_flag(call.argv, "--y"))
            delta = float(_flag(call.argv, "--delta"))
            alpha = parse_alpha(_flag(call.argv, "--alpha"))
            oracle = build_angle_oracle(alpha, n_max=X)
            lo = X - Y + rng.randrange(Y - 2000)
            sub = sieve_interval(lo, lo + 2000)
            primes = [int(p) for p in sub.primes()]
            composites = [n for n in range(lo + 1, lo + 2001) if not sub.is_prime(n)]
            for p in rng.sample(primes, min(SPOT_SAMPLE, len(primes))):
                if not is_prime_trial(p):
                    bad.append(f"sieve marked composite {p} prime")
                    continue
                program = classify_against_threshold(*oracle.dist(p), delta)
                exact = "below" if exact_below(alpha, p, delta) else "above"
                if program != exact:
                    bad.append(f"||{p}*alpha|| < {delta}: program {program}, exact {exact}")
            for n in rng.sample(composites, min(SPOT_SAMPLE, len(composites))):
                if is_prime_trial(n):
                    bad.append(f"sieve marked prime {n} composite")
        out.append(bad)
    return out


def check_unit(unit, texts) -> list:
    """One list of failure messages per call of ``unit``."""
    pinned = load_pinned(unit.workload, unit.seed, unit.size)
    spots = spot_check_window(unit) if unit.workload == "window" else None
    result = []
    for i, (call, text) in enumerate(zip(unit.calls, texts)):
        if text is None:
            result.append(["no output written"])
            continue
        try:
            got = extract(call, text)
        except (ValueError, KeyError, TypeError) as exc:
            result.append([f"unreadable output: {exc!r}"])
            continue
        bad = invariants(call, got)
        if pinned is not None:
            bad += compare(call, got, pinned[i])
        if spots is not None:
            bad += spots[i]
        result.append(bad)
    return result
