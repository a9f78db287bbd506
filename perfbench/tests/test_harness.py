"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Run from the repository root.  The smoke runs start real benchmark
processes on scaled-down inputs and take a few seconds each.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import DETAILS, END_TO_END  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _units(metrics):
    return {m["name"]: m["unit"] for m in metrics}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    for size in workloads.SIZES:
        first = workloads.generate(workload, 7, size)
        assert first == workloads.generate(workload, 7, size)
        assert first != workloads.generate(workload, 8, size)


def test_generator_ignores_hash_seed():
    code = ("import dataclasses, json, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; print(json.dumps([dataclasses.asdict("
            "workloads.generate(w, 3)) for w in workloads.WORKLOADS]))")
    outs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code, BENCH, os.path.join(ROOT, "src")],
                              capture_output=True, text=True, env=env, check=True)
        outs.add(proc.stdout)
    assert len(outs) == 1


def test_sweep_points_cover_the_stated_ranges():
    unit = workloads.generate("sweep", 5)
    xs = [p["X"] for p in unit.points]
    assert len(unit.points) == unit.n_points == workloads.SWEEP_POINTS["full"]
    assert 10 ** 5 <= min(xs) and max(xs) <= 10 ** 10
    assert all(1_000 <= p["Y"] <= 30_000 for p in unit.points)
    assert {p["delta"] for p in unit.points} == set(workloads.SWEEP_DELTAS)
    assert {p["alpha"] for p in unit.points} == set(workloads.alpha_panel())


def test_benchmark_json_matches_the_harness():
    assert _units(SPEC["end_to_end"]) == {n: u for n, (u, _) in END_TO_END.items()}
    layers = {n: spec[0] for n, spec in tracing.LAYER_METRICS.items()}
    layers[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1]
    assert _units(SPEC["per_layer"]) == layers
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert all(moves for *_, moves in tracing.LAYER_METRICS.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_and_no_errors(workload, trace):
    proc = _run("--workload", workload, "--seed", "11", "--seconds", "1",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) and math.isfinite(m["value"])
               for m in result["metrics"].values())
    assert info["details"]["error_rate"]["value"] == 0.0
    wanted = {"error_rate", "raw_setup_s", "raw_wall_s", "host_speed"}
    wanted |= {"count_s", "ssum_s"} if workload == "window" else set()
    assert {n: m["unit"] for n, m in info["details"].items()} == {
        n: DETAILS[n] for n in wanted}
    assert set(info["end_to_end"]) == set(END_TO_END)
    if trace:
        assert "trace_overhead_s" in info


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "window",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_host_speed_scales_by_the_reference_loop():
    import child

    ref = child.REF_SECONDS_CALL
    assert child.speed([ref] * 3, ref) == pytest.approx(1.0)
    assert child.speed([ref, 3 * ref], ref) == pytest.approx(0.5)
    unit = workloads.Unit("window", 1, "smoke", [workloads.Call("count", (), "x.json")])
    [(kind, raw, scaled, status)] = child.run_calls(unit, [[]], lambda argv: 0)
    assert kind == "count" and status == 0 and 0 <= raw and 0 < scaled


def test_checks_flag_wrong_outputs():
    unit = workloads.generate("window", 1)
    count, ssum = unit.calls[0], unit.calls[1]
    good = {"count": 90.0, "main_term": 100.0, "boundary_count": 0.0,
            "interval_primes": 900.0}
    assert checks.invariants(count, good) == []
    assert checks.invariants(count, dict(good, boundary_count=1.0))
    assert checks.invariants(count, dict(good, count=901.0))
    assert checks.invariants(count, dict(good, count=80.0))
    assert checks.compare(count, good, dict(good, count=91.0))
    got = {"value": 100.0, "main_term": 100.0, "psi_window": 200.0}
    assert checks.compare(ssum, got, dict(got, value=100.0 * (1 + 1e-13))) == []
    assert checks.compare(ssum, got, dict(got, value=100.0 * (1 + 1e-11)))


def test_pinned_outputs_exist_for_every_workload():
    for workload in workloads.WORKLOADS:
        pinned = checks.load_pinned(workload, 1, "full")
        assert pinned is not None and len(pinned) == len(workloads.generate(workload, 1).calls)


def test_exact_angle_verdict_matches_float_away_from_the_threshold():
    from primeangle.alpha import AlphaSpec

    alpha = AlphaSpec.sqrt(2)
    for p in range(1, 400):
        dist = abs(p * math.sqrt(2) - round(p * math.sqrt(2)))
        if abs(dist - 0.05) > 1e-9:
            assert checks.exact_below(alpha, p, 0.05) == (dist < 0.05)

