"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload, one untraced run.py per seed, one after another, then
one traced run at the first seed.  Prints, per workload, every end-to-end
metric and the details (``count_s``, ``ssum_s``, ``error_rate``) with unit,
median, quartiles, sample count and spread: the distance between the
quartiles as a share of the median, next to a third of the metric's bound
from BENCHMARK.json.  ``--out`` also writes all of it, with provenance and
the traced run's per-layer metrics, as JSON.  With ``--seeds 1`` it is a
quick look at every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

RUN_TIMEOUT_S = 180


def run_once(workload, seed, seconds, trace):
    """One run.py invocation: (details line, result line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def stats(values):
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = workloads.seed_range(args.seeds)
    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        values, runs = {}, []
        for seed in seeds:
            info, result = run_once(workload, seed, seconds, 0)
            summary["provenance"] = info["provenance"]
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "walls_s": info["walls_s"], "raw_walls_s": info["raw_walls_s"]})
            for group in ("end_to_end", "details"):
                for name, metric in info[group].items():
                    values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"units={info['units']} wall_s={info['end_to_end']['wall_s']['value']:.4f}",
                  file=sys.stderr)
        info, result = run_once(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "metrics": {name: {"unit": unit, "bound": bounds.get(name), **stats(vals)}
                        for name, (unit, vals) in values.items()},
            "runs": runs,
            "traced": {"seed": seeds[0], "correct": result["correct"],
                       "trace_overhead_s": info["trace_overhead_s"],
                       "per_layer": result["metrics"]},
        }
    print(f"{'workload':8} {'metric':13} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'n':>3} {'spread':>8} {'bound/3':>8}")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            third = f"{m['bound'] / 3:.4f}" if m["bound"] else "-"
            spread = f"{m['spread']:.4f}" if m["spread"] is not None else "-"
            print(f"{workload:8} {name:13} {m['unit']:6} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['n']:3d} {spread:>8} {third:>8}")
        print(f"{workload:8} trace.overhead_s (seed {entry['traced']['seed']}): "
              f"{entry['traced']['trace_overhead_s']:.4f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
