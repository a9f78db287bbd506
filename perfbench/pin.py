"""Record the checked outputs of the checked-out program for pinned seeds.

    python3 perfbench/pin.py --seeds 1-5

Runs each workload unit once per seed, in this process, and writes the
fields that checks.compare holds later runs to into
``pinned/<workload>.json`` as ``{seed: [fields of each call]}``.  Run it only
on the commit whose outputs are the reference; the files in the repository
were recorded on the seed commit of the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from child import load_program, run_calls  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-5", help="a seed or a range, e.g. 1-5")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    cli = load_program(os.path.dirname(HERE))
    scratch = tempfile.mkdtemp(dir=os.path.dirname(HERE), prefix=".perfbench_pin-")
    try:
        for workload in args.workloads.split(","):
            path = os.path.join(checks.PINNED_DIR, f"{workload}.json")
            pinned = {}
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    pinned = json.load(fh)
            for seed in workloads.seed_range(args.seeds):
                unit = workloads.generate(workload, seed)
                unit.write_inputs(scratch)
                calls = run_calls(unit, unit.argvs(scratch), cli.main)
                if any(status != 0 for *_, status in calls):
                    raise SystemExit(f"{workload} seed {seed}: a call failed: {calls}")
                texts = checks.read_outputs(unit, scratch)
                pinned[str(seed)] = [checks.extract(call, text)
                                     for call, text in zip(unit.calls, texts)]
                print(f"pinned {workload} seed {seed}", file=sys.stderr)
            os.makedirs(checks.PINNED_DIR, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dict(sorted(pinned.items(), key=lambda kv: int(kv[0]))), fh,
                          separators=(",", ":"))
                fh.write("\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
