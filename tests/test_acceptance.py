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
  10 the run's own criteria 1-9 vs a re-run in a fresh process, started
     alongside them under another hash seed -> byte-identical JSON

The tests after test_criterion first put a fault into one side of what
criteria 2 and 4 compare, or into one table entry that criterion 3's
pieces read, and expect the criterion to fail.  The rest
check how run_acceptance feeds criterion 10,
with cheap stand-ins for criteria 1-9 and, where the process itself is not
under test, for the fresh pass; then how the fresh pass's process is
started, and reaped however the run ends.
"""

import math
import os
import signal
import time
from collections import Counter

import pytest

from primeangle import acceptance, vaughan
from primeangle.acceptance import (
    CRITERIA,
    EXPSUM_TOL,
    POISSON_CONFIGS,
    REPRODUCED,
    FreshPass,
    fresh_hash_seed,
    run_acceptance,
    verify_json,
)
from primeangle.config import DEFAULT_SEED
from primeangle.expsum import linear_exp_sums
from primeangle.reference import naive_exp_sums
from primeangle.sieve import small_tables
from primeangle.smoothing import f_fourier_array

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


def test_criterion_4_catches_a_closed_form_off_by_1e_9(monkeypatch):
    calls = []

    def shifted(lo, hi, x):
        out = linear_exp_sums(lo, hi, x)
        if len(calls) == 1:
            out[1234] += 1e-9           # one element of the second batch
        calls.append(len(out))
        return out

    monkeypatch.setattr(acceptance, "linear_exp_sums", shifted)
    record = CRITERIA[4](DEFAULT_SEED)
    assert len(calls) > 1
    assert not record["passed"] and record["max_abs_diff"] > EXPSUM_TOL


def test_criterion_4_catches_a_reference_that_drops_a_term(monkeypatch):
    ranges = []

    def dropping(w, z, x):
        z = z.copy()
        at = 4999 - len(ranges)
        ranges.extend(zip(w.tolist(), z.tolist()))
        if 0 <= at < len(z):
            z[at] -= 1                  # the last term of range 4999
        return naive_exp_sums(w, z, x)

    monkeypatch.setattr(acceptance, "naive_exp_sums", dropping)
    record = CRITERIA[4](DEFAULT_SEED)
    w, z = ranges[4999]
    assert len(ranges) == acceptance.EXPSUM_INSTANCES
    assert math.floor(z) > math.floor(w)  # that range had a term to drop
    assert not record["passed"] and record["max_abs_diff"] > 1 - EXPSUM_TOL


@pytest.mark.parametrize("row", range(len(POISSON_CONFIGS)))
def test_criterion_2_catches_a_fourier_form_off_by_1e_11(monkeypatch, row):
    calls = []

    def perturbed(xs, kernel):
        out = f_fourier_array(xs, kernel)
        if len(calls) == row:
            out[len(out) // 3] += 1e-11
        calls.append(kernel.L)
        return out

    monkeypatch.setattr(acceptance, "f_fourier_array", perturbed)
    record = CRITERIA[2](DEFAULT_SEED)
    assert not record["passed"]
    assert [r["sup_diff"] > r["allowed"] for r in record["rows"]] == \
        [i == row for i in range(len(POISSON_CONFIGS))]


def test_criterion_3_catches_one_wrong_beta(monkeypatch):
    build = vaughan.BilinearCoeffs.build

    def corrupted(limit, V, tables):
        coeffs = build(limit, V, tables)
        coeffs.b[100] += 1              # A3 reads it at n = 100 d, for d > U
        return coeffs

    monkeypatch.setattr(vaughan.BilinearCoeffs, "build", staticmethod(corrupted))
    record = CRITERIA[3](DEFAULT_SEED)
    assert not record["passed"] and record["failures"] > 0
    assert record["max_residual"] >= math.log(2)


def test_criterion_3_catches_one_wrong_mu(monkeypatch):
    def corrupted(N):
        tables = small_tables(N)
        tables.mu[3] = 1                # mu(3) = -1
        return tables

    monkeypatch.setattr(acceptance, "small_tables", corrupted)
    record = CRITERIA[3](DEFAULT_SEED)
    assert not record["passed"] and record["failures"] > 0


def test_cached_criteria_reproduce_within_one_process():
    # the fresh pass starts with cold module caches; this re-run meets the
    # caches that the first run of the criteria filled
    cached = (1, 5, 6, 7, 8, 9)
    assert verify_json(cached, seed=DEFAULT_SEED) == verify_json(cached, seed=DEFAULT_SEED)


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


@pytest.fixture
def in_process_pass(monkeypatch):
    """A stand-in for FreshPass that makes the second pass here, when asked
    for its result; returns the list of stand-ins made."""
    made = []

    class InProcessPass:
        def __init__(self, seed):
            self.seed, self.closed = seed, False
            made.append(self)

        def result(self):
            return verify_json(REPRODUCED, seed=self.seed)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.closed = True
            return False

    monkeypatch.setattr(acceptance, "FreshPass", InProcessPass)
    return made


def test_full_run_calls_criteria_1_to_9_twice(fake_criteria, in_process_pass):
    # once for the run's own records, once more in the fresh pass
    doc = run_acceptance(seed=7)
    assert fake_criteria == {k: 2 for k in REPRODUCED}
    assert [r["criterion"] for r in doc["criteria"]] == sorted(CRITERIA)
    assert doc["criteria"][-1]["passed"] and doc["all_passed"]
    assert [(p.seed, p.closed) for p in in_process_pass] == [(7, True)]


def test_a_drifting_record_fails_criterion_10(fake_criteria, in_process_pass, monkeypatch):
    def drifting(seed):
        fake_criteria[5] += 1
        return {"criterion": 5, "name": "drifting", "call": fake_criteria[5], "passed": True}

    monkeypatch.setitem(CRITERIA, 5, drifting)
    doc = run_acceptance(seed=7)
    assert doc["criteria"][-1]["criterion"] == 10
    assert not doc["criteria"][-1]["passed"] and not doc["all_passed"]
    assert not CRITERIA[10](7)["passed"]


def test_full_run_and_criterion_10_alone_agree(fake_criteria, in_process_pass):
    alone = CRITERIA[10](7)
    in_run = run_acceptance(seed=7)["criteria"][-1]
    assert alone == in_run
    assert alone["passed"] and alone["bytes"] == len(verify_json(REPRODUCED, seed=7))
    assert [p.closed for p in in_process_pass] == [True, True]


def test_a_partial_run_gives_criterion_10_both_passes(fake_criteria, in_process_pass):
    doc = run_acceptance([3, 10], seed=7)
    assert fake_criteria == {3: 3, **{k: 2 for k in REPRODUCED if k != 3}}
    assert doc["all_passed"]
    assert len(in_process_pass) == 1


def test_no_fresh_pass_without_criterion_10(fake_criteria, in_process_pass):
    run_acceptance(REPRODUCED, seed=7)
    assert not in_process_pass


def test_empty_selection_is_an_error(fake_criteria, in_process_pass):
    with pytest.raises(ValueError, match="no criteria selected"):
        run_acceptance(criteria=[])
    assert not fake_criteria and not in_process_pass


@pytest.fixture
def started(monkeypatch):
    """Records every real FreshPass that the code under test starts."""
    made = []

    class Recorded(FreshPass):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(acceptance, "FreshPass", Recorded)
    return made


@pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
def test_a_raising_criterion_kills_and_reaps_the_fresh_pass(fake_criteria, started,
                                                            monkeypatch, error):
    def broken(seed):
        raise error("criterion 2 broke")

    monkeypatch.setitem(CRITERIA, 2, broken)
    with pytest.raises(error, match="criterion 2 broke"):
        run_acceptance(seed=7)
    [fresh] = started
    # the real criteria 1-9 take seconds, so the pass was still running
    assert fresh.process.returncode == -signal.SIGKILL
    with pytest.raises(ProcessLookupError):
        os.kill(fresh.process.pid, 0)


def test_a_failing_fresh_pass_raises_and_is_reaped(fake_criteria, started, monkeypatch):
    monkeypatch.setattr(acceptance, "FRESH_PASS_SOURCE",
                        "raise SystemExit('the fresh pass broke')")
    with pytest.raises(RuntimeError, match="exited with code 1: the fresh pass broke"):
        run_acceptance(seed=7)
    assert [p.process.returncode for p in started] == [1]


@pytest.mark.parametrize("caller", [None, "random", "0", "12345", "4294967295"])
def test_the_fresh_pass_runs_under_another_hash_seed(monkeypatch, caller):
    if caller is None:
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
    else:
        monkeypatch.setenv("PYTHONHASHSEED", caller)
    monkeypatch.setattr(acceptance, "FRESH_PASS_SOURCE",
                        "import os, sys; sys.stdout.write(os.environ['PYTHONHASHSEED'])")
    with FreshPass(7) as fresh:
        seen = fresh.result()
    assert seen != caller and seen == fresh_hash_seed(caller)  # fixed for a given caller
    assert 0 <= int(seen) < 2 ** 32  # the interpreter accepted it


def test_the_fresh_pass_imports_this_copy_of_primeangle(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", "")
    monkeypatch.setattr(acceptance, "FRESH_PASS_SOURCE",
                        "import sys; sys.path.insert(0, sys.argv[1]); import primeangle; "
                        "sys.stdout.write(primeangle.__file__)")
    with FreshPass(7) as fresh:
        seen = fresh.result()
    assert os.path.samefile(seen, acceptance.__file__.replace("acceptance.py", "__init__.py"))


# Stand-ins for criteria 1-9, as source, so that this process and the fresh
# pass install the same ones.  With READS_HASH, criterion 1 records the hash
# of a string, which each interpreter's PYTHONHASHSEED sets anew.
STAND_INS = '''
def stand_in(k):
    def criterion(seed):
        record = {"criterion": k, "name": f"stand-in {k}", "seed": seed, "passed": True}
        if READS_HASH and k == 1:
            record["hash"] = hash("primeangle")
        return record
    return criterion


for k in REPRODUCED:
    CRITERIA[k] = stand_in(k)
'''
FRESH_PASS_IMPORT = "from primeangle.acceptance import REPRODUCED, verify_json\n"


@pytest.mark.parametrize("reads_hash", [True, False])
def test_the_fresh_pass_catches_a_criterion_that_reads_process_state(monkeypatch, reads_hash):
    criteria = dict(CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    exec(STAND_INS, {"READS_HASH": reads_hash, "REPRODUCED": REPRODUCED, "CRITERIA": criteria})
    assert FRESH_PASS_IMPORT in acceptance.FRESH_PASS_SOURCE
    monkeypatch.setattr(acceptance, "FRESH_PASS_SOURCE", acceptance.FRESH_PASS_SOURCE.replace(
        FRESH_PASS_IMPORT, FRESH_PASS_IMPORT + "from primeangle.acceptance import CRITERIA\n"
        f"READS_HASH = {reads_hash}\n" + STAND_INS))
    # a second run in this process meets the same hash seed, and passes
    assert verify_json(REPRODUCED, seed=7) == verify_json(REPRODUCED, seed=7)
    # the fresh pass runs under another one: only the criterion without the hash passes
    assert acceptance.criterion_10(7)["passed"] is not reads_hash
