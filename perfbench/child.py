"""One fresh, single-threaded benchmark process.

    python3 perfbench/child.py JOB.json

JOB.json names the checkout root, the workload, seed and size, a scratch
directory, and a mode:

* ``probe``: import primeangle, generate the inputs, report when ready, exit;
* ``plain``: the same, then run the workload unit once through
  ``primeangle.cli.main`` (the timed section), then check the outputs;
* ``traced``: as ``plain``, with the tracing wrappers installed first.

Prints one JSON line with the ready time (``time.monotonic``, comparable with
the parent's clock), the host speed right after it, the timed wall, per-call
times and exit codes, peak RSS, the per-call output check failures and, when
traced, the layer metrics.

Host speed.  Other tenants of a shared host slow every process on it by up
to about 1.7x, in spells that last from seconds to minutes.  So the child
times a fixed piece of pure-Python work, ``reference_loop``, next to the
work: a few times right after set-up, and during the timed section every
``SAMPLE_EVERY_S`` from a ``SIGALRM`` handler, plus once before and after
each call.  A call's scaled time is its raw time (without the samples taken
inside it) times ``REF_SECONDS_CALL`` over the mean sample of that call: the
time it would have taken with the host as fast as when ``REF_SECONDS_CALL``
was measured.  Set-up times scale the same way, by ``REF_SECONDS_SETUP``.
The loop never touches the program, so a change to the program moves the
scaled time exactly as it moves the raw one.
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import sys
import time

REF_ITERATIONS = 10_000     # one host-speed sample: about 1 ms of pure-Python work
REF_HEAP_INTS = 100_000     # ints the sample reads from, shuffled: about 3.6 MB
# A sample's time with the host quiet, on a 2.1 GHz Xeon VM with Python 3.11.
# Right after set-up the samples run back to back with the heap in cache;
# inside a call they run after the program has filled the caches, and slower.
REF_SECONDS_SETUP = 0.00076
REF_SECONDS_CALL = 0.0012
SAMPLE_EVERY_S = 0.1
SETUP_SAMPLES = 8           # samples right after set-up; the first two warm up

_heap = []


def reference_loop():
    """Seconds for a fixed piece of pure-Python work: one host-speed sample.

    Half is small-int arithmetic, half reads ints scattered over a few MB of
    heap, so the sample feels cache pressure as the program does.
    """
    if not _heap:                # built on first use, after set-up is timed
        _heap.extend(range(10 ** 6, 10 ** 6 + REF_HEAP_INTS))
        random.Random(0).shuffle(_heap)
    stride = REF_HEAP_INTS // REF_ITERATIONS
    start = time.perf_counter()
    total = 0
    for i in range(REF_ITERATIONS):
        total += i * i
    for value in _heap[::stride]:
        total += value
    return time.perf_counter() - start


def speed(samples, ref_seconds):
    """Host speed from samples: 1 on the reference host when quiet, lower when slowed."""
    return ref_seconds * len(samples) / sum(samples)


class HostSampler:
    """Samples ``reference_loop`` every ``SAMPLE_EVERY_S`` while a call runs.

    ``SIGALRM`` handlers run between bytecodes of the main thread, so the
    samples run on the same CPU as the program, at the moments it runs.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, *_):
        self.samples.append(reference_loop())

    def __enter__(self):
        self.samples = [reference_loop()]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *_):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self._sample()
        return False

    def inside(self):
        """Seconds spent sampling since ``__enter__``'s own sample."""
        return sum(self.samples[1:])


def load_program(root):
    """Import primeangle from ``root/src``, refusing any other copy."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import primeangle.cli

    where = os.path.realpath(os.path.dirname(primeangle.cli.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"primeangle imported from {where}, not from {src}")
    return primeangle.cli


def run_calls(unit, argvs, main):
    """The timed section: every call of the unit, in order.

    Returns [(kind, raw seconds, scaled seconds, exit code or error text)];
    the raw seconds leave out the host-speed samples taken inside the call.
    """
    calls = []
    clock = time.perf_counter
    sampler = HostSampler()
    for call, argv in zip(unit.calls, argvs):
        with sampler:
            t0 = clock()
            try:
                status = main(argv)
            except SystemExit as exc:        # argparse rejects its argv this way
                status = f"SystemExit({exc.code})"
            except Exception as exc:         # main() catches these; count them anyway
                status = repr(exc)
            raw = clock() - t0 - sampler.inside()
        calls.append((call.kind, raw, raw * speed(sampler.samples, REF_SECONDS_CALL), status))
    return calls


def main(job_path):
    with open(job_path, "r", encoding="utf-8") as fh:
        job = json.load(fh)
    cli = load_program(job["root"])
    import workloads

    unit = workloads.generate(job["workload"], job["seed"], job["size"])
    directory = job["dir"]
    unit.write_inputs(directory)
    argvs = unit.argvs(directory)
    ready = time.monotonic()
    samples = [reference_loop() for _ in range(SETUP_SAMPLES)][2:]
    result = {"ready": ready, "speed": speed(samples, REF_SECONDS_SETUP)}
    if job["mode"] == "probe":
        print(json.dumps(result))
        return 0

    main_fn = cli.main
    tracer = None
    if job["mode"] == "traced":
        import tracing

        tracer = tracing.Tracer()
        main_fn = tracing.install(tracer, cli.main)
    calls = run_calls(unit, argvs, main_fn)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(wall=sum(c[2] for c in calls), raw_wall=sum(c[1] for c in calls),
                  rss_mb=rss_mb, n_points=unit.n_points, calls=[list(c) for c in calls])
    if tracer is not None:
        # before the checks, which call into the traced program again
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(directory, "spans.jsonl"))

    import checks

    texts = checks.read_outputs(unit, directory)
    result["failures"] = checks.check_unit(unit, texts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
