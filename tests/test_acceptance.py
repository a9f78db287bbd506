"""Acceptance gate: every release criterion at its pinned tolerance.

Each test_criterion case runs one criterion, prints a PASS/FAIL line
(visible with -s or -rA), asserts the verdict, and enforces the stated
runtime ceiling.  Tolerances live in primeangle.acceptance as module
constants:

  1  convergent invariants: exact, zero failures          (< 1 s)
  2  Poisson identity: sup diff <= tail bound + 1e-12     (< 5 s)
  3  decomposition identity: residual <= 1e-9, all n      (< 10 s)
  4  exp-sum closed vs naive <= 1e-10, sharp min bound    (< 10 s)
  5  min-sum constant <= 8, two points per interval       (< 30 s)
  6  T3 = T4 + T5 (1e-9 rel), Cauchy-Schwarz, exact gamma (< 60 s)
  7  psi window within 5% of Y at X = 1e7                 (< 20 s)
  8  small-angle prime count within 15%, both alphas      (< 30 s)
  9  smoothed sum within 15% of delta*Y, admissible point (< 120 s)
  10 the run's own criteria 1-9 vs one re-run -> byte-identical JSON

The tests after test_criterion check how run_acceptance feeds criterion 10,
with cheap stand-ins for criteria 1-9.
"""

import time
from collections import Counter

import pytest

from primeangle.acceptance import CRITERIA, REPRODUCED, run_acceptance, verify_json
from primeangle.config import DEFAULT_SEED

RUNTIME_LIMITS = {1: 1.0, 2: 5.0, 3: 10.0, 4: 10.0, 5: 30.0,
                  6: 60.0, 7: 20.0, 8: 30.0, 9: 120.0}


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    started = time.perf_counter()
    record = CRITERIA[number](DEFAULT_SEED)
    elapsed = time.perf_counter() - started
    status = "PASS" if record["passed"] else "FAIL"
    print(f"[{status}] criterion {number:2d}: {record['name']} ({elapsed:.2f}s)")
    assert record["passed"], record
    limit = RUNTIME_LIMITS.get(number)
    if limit is not None:
        assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s >= {limit}s"


@pytest.fixture
def fake_criteria(monkeypatch):
    """Cheap stand-ins for criteria 1-9; returns the count of calls to each."""
    calls = Counter()

    def fake(k):
        def criterion(seed):
            calls[k] += 1
            return {"criterion": k, "name": f"fake {k}", "seed": seed, "passed": True}
        return criterion

    for k in REPRODUCED:
        monkeypatch.setitem(CRITERIA, k, fake(k))
    return calls


def test_full_run_calls_criteria_1_to_9_twice(fake_criteria):
    # once for the run's own records, once more inside criterion 10
    doc = run_acceptance(seed=7)
    assert fake_criteria == {k: 2 for k in REPRODUCED}
    assert [r["criterion"] for r in doc["criteria"]] == sorted(CRITERIA)
    assert doc["criteria"][-1]["passed"] and doc["all_passed"]


def test_a_drifting_record_fails_criterion_10(fake_criteria, monkeypatch):
    def drifting(seed):
        fake_criteria[5] += 1
        return {"criterion": 5, "name": "drifting", "call": fake_criteria[5], "passed": True}

    monkeypatch.setitem(CRITERIA, 5, drifting)
    doc = run_acceptance(seed=7)
    assert doc["criteria"][-1]["criterion"] == 10
    assert not doc["criteria"][-1]["passed"] and not doc["all_passed"]
    assert not CRITERIA[10](7)["passed"]


def test_full_run_and_criterion_10_alone_agree(fake_criteria):
    alone = CRITERIA[10](7)
    in_run = run_acceptance(seed=7)["criteria"][-1]
    assert alone == in_run
    assert alone["passed"] and alone["bytes"] == len(verify_json(REPRODUCED, seed=7))


def test_a_partial_run_gives_criterion_10_both_passes(fake_criteria):
    doc = run_acceptance([3, 10], seed=7)
    assert fake_criteria == {3: 3, **{k: 2 for k in REPRODUCED if k != 3}}
    assert doc["all_passed"]


def test_empty_selection_is_an_error(fake_criteria):
    with pytest.raises(ValueError, match="no criteria selected"):
        run_acceptance(criteria=[])
    assert not fake_criteria
