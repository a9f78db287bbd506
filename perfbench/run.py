"""primeangle benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload window --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds ``src/primeangle``.  The run
starts fresh single-threaded Python processes one after another (see
child.py): first ``PROBES`` set-up probes, then workload units until the next
one would overrun ``--seconds``.  Every unit imports primeangle from
``src/``, runs the seeded workload through ``primeangle.cli.main`` in
process, and checks what it wrote.

Times are scaled to the host's reference speed (see child.py): ``setup_s``,
``wall_s``, ``points_per_s``, ``count_s`` and ``ssum_s`` are what the run
would have measured with the host as fast as it is when quiet.  The raw
medians and the measured host speed are on the details line.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` units alternate untraced and traced and it reports the
per-layer metrics, ``trace.overhead_s`` among them.  The line before it
holds the details: provenance, per-unit samples, ``count_s``/``ssum_s``,
``error_rate``, the raw times, the host speed and the tracing overhead.
Scratch files go to ``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import LAYER_METRICS, OVERHEAD_METRIC  # noqa: E402

PROBES = 3              # set-up-only processes per run, for the setup_s median
MAX_UNITS = 40
CHILD_TIMEOUT_S = 150
WORK_DIR = ".perfbench_work"
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# name -> (unit, better); the order BENCHMARK.json lists them in
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "points_per_s": ("1/s", "higher"),
}
# reported on the details line only: not every workload has them, they are
# 0, or they are the raw figures behind the scaled ones
DETAILS = {
    "count_s": "s",
    "ssum_s": "s",
    "error_rate": "ratio",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "host_speed": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def checkout_root():
    """The checkout this script sits in; it must hold the program's sources."""
    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "primeangle", "cli.py")):
        raise SystemExit(f"error: no src/primeangle under {root}; "
                         "run the benchmark from a primeangle checkout")
    return root


def provenance(root):
    """Where the numbers come from: code version, interpreter, machine."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):   # a plain copy has no sha
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            try:
                with open(os.path.join(base, entry, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(base, entry, "size")) as fh:
                    size = fh.read().strip()
                with open(os.path.join(base, entry, "type")) as fh:
                    kind = fh.read().strip()
            except OSError:
                continue
            if level in ("2", "3") and kind in ("Unified", "Data"):
                caches[f"L{level}"] = size
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cache": caches,
        "machine": platform.machine(),
    }


class Runner:
    """Starts the child processes of one run and keeps their results."""

    def __init__(self, root, workload, seed, size):
        self.root = root
        self.workload, self.seed, self.size = workload, seed, size
        self.work = os.path.join(root, WORK_DIR, workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, **CHILD_ENV)
        self.count = 0

    def child(self, mode):
        """Run one child to completion; returns (result dict, raw setup_s, seconds)."""
        directory = os.path.join(self.work, f"{self.count:03d}-{mode}")
        self.count += 1
        os.makedirs(directory)
        job = {"root": self.root, "workload": self.workload, "seed": self.seed,
               "size": self.size, "dir": directory, "mode": mode}
        job_path = os.path.join(directory, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        err_path = os.path.join(directory, "stderr.txt")
        with open(err_path, "w", encoding="utf-8") as err:
            started = time.monotonic()
            proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                    stdout=subprocess.PIPE, stderr=err, text=True,
                                    env=self.env, cwd=self.root)
            try:
                out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise ChildFailed(f"{mode} process exceeded {CHILD_TIMEOUT_S}s")
            finished = time.monotonic()
        if proc.returncode != 0 or not out.strip():
            with open(err_path, encoding="utf-8") as fh:
                tail = fh.read()[-2000:]
            raise ChildFailed(f"{mode} process exited {proc.returncode}:\n{tail}")
        result = json.loads(out.strip().splitlines()[-1])
        return result, result["ready"] - started, finished - started


def measure(runner, seconds, trace):
    """Probes, then units until the next would overrun ``seconds``."""
    deadline = time.monotonic() + seconds
    setups = []                 # (raw seconds, host speed) per process
    for _ in range(PROBES):
        result, setup, _ = runner.child("probe")
        setups.append((setup, result["speed"]))
    modes = ["plain", "traced"] if trace else ["plain"]
    units = {mode: [] for mode in modes}
    longest = {}
    for i in range(MAX_UNITS):
        mode = modes[i % len(modes)]
        if all(units.values()) and time.monotonic() + longest[mode] > deadline:
            break
        result, setup, elapsed = runner.child(mode)
        setups.append((setup, result["speed"]))
        units[mode].append(result)
        longest[mode] = max(longest.get(mode, 0.0), elapsed)
    return setups, units


def summarise(workload, setups, units, trace):
    plain = units["plain"]
    everything = plain + units.get("traced", [])
    attempted = sum(len(u["calls"]) for u in everything)
    failed = 0
    messages = []
    for u in everything:
        for (kind, _raw, _secs, status), bad in zip(u["calls"], u["failures"]):
            if status != 0 or bad:
                failed += 1
                messages.append({"call": kind, "exit": status, "failures": bad[:5]})
    wall = statistics.median(u["wall"] for u in plain)
    n_points = plain[0]["n_points"]
    e2e = {
        "setup_s": statistics.median(raw * speed for raw, speed in setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in plain),
        "points_per_s": n_points / wall,
    }

    def kind_time(kind):
        return statistics.median(sum(s for k, _, s, _ in u["calls"] if k == kind)
                                 for u in plain)

    details = {
        "error_rate": failed / attempted,
        "raw_setup_s": statistics.median(raw for raw, _ in setups),
        "raw_wall_s": statistics.median(u["raw_wall"] for u in plain),
        "host_speed": statistics.median(u["wall"] / u["raw_wall"] for u in plain),
    }
    if workload == "window":
        details["count_s"] = kind_time("count")
        details["ssum_s"] = kind_time("ssum")
    info = {
        "units": len(plain),
        "walls_s": [u["wall"] for u in plain],
        "raw_walls_s": [u["raw_wall"] for u in plain],
        "setups_s": [raw * speed for raw, speed in setups],
        "speeds": [speed for _, speed in setups],
        "failures": messages[:20],
        "details": {name: {"value": v, "unit": DETAILS[name]} for name, v in details.items()},
        "end_to_end": {name: {"value": v, "unit": END_TO_END[name][0]}
                       for name, v in e2e.items()},
    }
    if trace:
        traced = units["traced"]
        traced_wall = statistics.median(u["wall"] for u in traced)
        metrics = {name: {"value": statistics.median(u["layers"][name] for u in traced),
                          "unit": spec[0]}
                   for name, spec in LAYER_METRICS.items()}
        name, unit = OVERHEAD_METRIC[:2]
        metrics[name] = {"value": traced_wall - wall, "unit": unit}
        info.update(traced_units=len(traced), traced_wall_s=traced_wall,
                    trace_overhead_s=traced_wall - wall)
    else:
        metrics = info["end_to_end"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="smoke: scaled-down inputs for the harness self-tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = checkout_root()
    runner = Runner(root, args.workload, args.seed, args.size)
    try:
        setups, units = measure(runner, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, info = summarise(args.workload, setups, units, bool(args.trace))
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "provenance": provenance(root), **info}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
