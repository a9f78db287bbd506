"""Spans and counters around primeangle's public functions, from outside src/.

``install(tracer)`` replaces each traced function at every name a caller
resolves it through: every ``primeangle.*`` module attribute bound to the
original function, methods on their class, and the entries of
``acceptance.CRITERIA``.  It is called only in a traced benchmark process.

A span records its name, parent span, start, end and a few attributes.
Spans stay in memory until the run ends; ``write_spans`` then writes them
out.  Functions called hundreds of thousands of times per run (``dist``,
``frac``, ``f_direct``, ``f_fourier``, ``linear_exp_sum``) get a call
counter instead of a span, so tracing neither runs out of memory nor
swamps what it measures.

``LAYER_METRICS`` defines every per-layer metric, with the end-to-end
metric and workload it is expected to move.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, span name, attribute extractor or None).
# "Class.method" attributes are patched on the class.
SPANS = (
    ("sieve", "sieve_interval", "sieve.interval",
     lambda args, kw, res: {"numbers": res.hi - res.lo}),
    ("sieve", "IntervalSieve.prime_powers", "sieve.prime_powers", None),
    ("sieve", "primes_with_small_angle", "sieve.small_angle",
     lambda args, kw, res: {"items": _sieve_arg(args, kw).prime_count(),
                            "boundary": res.boundary_count}),
    ("sieve", "small_tables", "sieve.small_tables", None),
    ("sieve", "mangoldt_sum_interval", "sieve.psi", None),
    ("alpha", "build_angle_oracle", "alpha.oracle_build",
     lambda args, kw, res: {"q_bits": res.anchor.q.bit_length()}),
    ("config", "select_q", "config.select_q", None),
    ("config", "config_from_dict", "config.from_dict", None),
    ("smoothing", "build_kernel", "smoothing.kernel_build", None),
    ("expsum", "min_sum", "expsum.min_sum",
     lambda args, kw, res: {"terms": (args[0] if args else kw["instance"]).M}),
    ("vaughan", "s1_type_i", "vaughan.s1", None),
    ("vaughan", "t1_sum", "vaughan.t1", None),
    ("vaughan", "t2_sum", "vaughan.t2", None),
    ("vaughan", "t3_t4_t5_split", "vaughan.split",
     lambda args, kw, res: {"empty_pairs": res.empty_pair_count}),
    ("vaughan", "gamma_counts", "vaughan.gamma", None),
    ("vaughan", "BilinearCoeffs.build", "vaughan.coeffs_build", None),
    ("vaughan", "vaughan_pieces", "vaughan.pieces", None),
    ("experiments", "run_prime_count", "experiments.count", None),
    ("experiments", "run_smoothed_sum", "experiments.ssum", None),
    ("experiments", "run_bound_suite", "experiments.suite", None),
    ("experiments", "sweep", "experiments.sweep", None),
    ("report", "reports_to_csv", "report.csv", None),
    ("report", "report_to_json", "report.json", None),
    ("reference", "naive_exp_sum", "reference.naive", None),
    ("reference", "brute_force_quadruples", "reference.naive", None),
)

COUNTERS = (
    ("alpha", "AngleOracle.dist", "alpha.dist"),
    ("alpha", "AngleOracle.frac", "alpha.frac"),
    ("smoothing", "f_direct", "smoothing.f_direct"),
    ("smoothing", "f_fourier", "smoothing.f_fourier"),
    ("expsum", "linear_exp_sum", "expsum.linear_exp_sum"),
)

CLI_SPAN = "cli.main"


def _sieve_arg(args, kw):
    return args[0] if args else kw["sieve"]


def _total(name):
    return lambda s: s.total(name)


def _calls(name):
    return lambda s: float(s.calls(name))


def _attr(name, key):
    return lambda s: float(s.attr_sum(name, key))


def _self(name):
    return lambda s: s.self_time(name)


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def _mean_attr(name, key):
    return _ratio(_attr(name, key), _calls(name))


def _counter(name):
    return lambda s: float(s.counts.get(name, 0))


def _criterion(k):
    return lambda s: s.total(f"acceptance.criterion_{k}", parent=CLI_SPAN)


# name -> (unit, better, value function, the end-to-end metrics it should move)
LAYER_METRICS = {
    "sieve.interval_s": ("s", "lower", _total("sieve.interval"),
                         "count_s, ssum_s on window (1e12 point); points_per_s on sweep"),
    "sieve.interval_calls": ("count", "lower", _calls("sieve.interval"),
                             "points_per_s on sweep"),
    "sieve.numbers_per_s": ("1/s", "higher",
                            _ratio(_attr("sieve.interval", "numbers"), _total("sieve.interval")),
                            "count_s, ssum_s on window (1e12 point); points_per_s on sweep"),
    "sieve.prime_powers_s": ("s", "lower", _total("sieve.prime_powers"),
                             "ssum_s and peak_rss_mb on window"),
    "sieve.small_angle_s": ("s", "lower", _total("sieve.small_angle"),
                            "count_s on window (1e9 point)"),
    "sieve.small_angle_items": ("count", "lower", _attr("sieve.small_angle", "items"),
                                "count_s on window (1e9 point)"),
    "sieve.small_angle_boundary": ("count", "lower", _attr("sieve.small_angle", "boundary"),
                                   "count_s on window (1e9 point)"),
    "sieve.boundary_share": ("ratio", "lower",
                             _ratio(_attr("sieve.small_angle", "boundary"),
                                    _attr("sieve.small_angle", "items")),
                             "count_s on window (1e9 point)"),
    "sieve.small_tables_s": ("s", "lower", _total("sieve.small_tables"),
                             "wall_s on bounds and verify"),
    "sieve.psi_s": ("s", "lower", _total("sieve.psi"), "wall_s on bounds and verify"),
    "alpha.oracle_build_s": ("s", "lower", _total("alpha.oracle_build"),
                             "points_per_s on sweep"),
    "alpha.oracle_builds": ("count", "lower", _calls("alpha.oracle_build"),
                            "points_per_s on sweep"),
    "alpha.anchor_q_bits": ("bits", "lower", _mean_attr("alpha.oracle_build", "q_bits"),
                            "points_per_s on sweep"),
    "alpha.dist_calls": ("count", "lower", _counter("alpha.dist"),
                         "count_s, ssum_s on window"),
    "alpha.frac_calls": ("count", "lower", _counter("alpha.frac"), "wall_s on bounds"),
    "config.select_q_s": ("s", "lower", _total("config.select_q"), "points_per_s on sweep"),
    "config.from_dict_s": ("s", "lower", _total("config.from_dict"), "points_per_s on sweep"),
    "smoothing.f_direct_calls": ("count", "lower", _counter("smoothing.f_direct"),
                                 "ssum_s on window; wall_s on verify"),
    "smoothing.f_fourier_calls": ("count", "lower", _counter("smoothing.f_fourier"),
                                  "wall_s on verify and bounds"),
    "smoothing.kernel_build_s": ("s", "lower", _total("smoothing.kernel_build"),
                                 "wall_s on verify and bounds"),
    "expsum.linear_exp_sum_calls": ("count", "lower", _counter("expsum.linear_exp_sum"),
                                    "wall_s on bounds and verify"),
    "expsum.min_sum_s": ("s", "lower", _total("expsum.min_sum"), "wall_s on bounds and verify"),
    "expsum.min_sum_terms": ("count", "lower", _attr("expsum.min_sum", "terms"),
                             "wall_s on bounds and verify"),
    "vaughan.s1_s": ("s", "lower", _total("vaughan.s1"), "wall_s on bounds"),
    "vaughan.t1_s": ("s", "lower", _total("vaughan.t1"), "wall_s on bounds"),
    "vaughan.t2_s": ("s", "lower", _total("vaughan.t2"), "wall_s on bounds and verify"),
    "vaughan.split_s": ("s", "lower", _total("vaughan.split"), "wall_s on bounds and verify"),
    "vaughan.gamma_s": ("s", "lower", _total("vaughan.gamma"), "wall_s on bounds and verify"),
    "vaughan.coeffs_build_s": ("s", "lower", _total("vaughan.coeffs_build"),
                               "wall_s on bounds and verify"),
    "vaughan.coeffs_builds": ("count", "lower", _calls("vaughan.coeffs_build"),
                              "wall_s on bounds and verify"),
    "vaughan.split_empty_pairs": ("count", "lower", _attr("vaughan.split", "empty_pairs"),
                                  "wall_s on bounds"),
    "vaughan.pieces_s": ("s", "lower", _total("vaughan.pieces"), "wall_s on verify"),
    "experiments.count_self_s": ("s", "lower", _self("experiments.count"),
                                 "count_s on window"),
    "experiments.ssum_self_s": ("s", "lower", _self("experiments.ssum"),
                                "ssum_s on window; points_per_s on sweep"),
    "experiments.suite_self_s": ("s", "lower", _self("experiments.suite"), "wall_s on bounds"),
    "experiments.sweep_self_s": ("s", "lower", _self("experiments.sweep"),
                                 "points_per_s on sweep"),
    "report.csv_s": ("s", "lower", _total("report.csv"), "points_per_s on sweep"),
    "report.json_s": ("s", "lower", _total("report.json"), "wall_s on verify"),
    **{f"acceptance.criterion_{k}_s": ("s", "lower", _criterion(k), "wall_s on verify")
       for k in range(1, 11)},
    "reference.naive_s": ("s", "lower", _total("reference.naive"),
                          "wall_s on verify (expected never to move)"),
    "cli.overhead_s": ("s", "lower", _self(CLI_SPAN), "every wall_s (expected small)"),
    "trace.spans": ("count", "lower", lambda s: float(s.n_spans),
                    "none: the tracer's own memory cost"),
}
# Filled in by run.py from the traced and untraced processes of one run.
OVERHEAD_METRIC = ("trace.overhead_s", "s", "lower",
                   "none: traced wall_s minus untraced wall_s")


class Tracer:
    """In-memory spans ``[name, parent, start, end, attrs]`` and call counts."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()

    def span(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def layer_metrics(self) -> dict:
        agg = Aggregate(self.spans, self.counts)
        return {name: float(fn(agg)) for name, (_u, _b, fn, _m) in LAYER_METRICS.items()}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


class Aggregate:
    """Per-name sums over a finished list of spans, built in one pass."""

    def __init__(self, spans, counts):
        self.n_spans = len(spans)
        self.counts = counts
        # children never overlap (the program is single-threaded), so the
        # time a span's children cover is the sum of their durations
        covered = [0.0] * len(spans)
        for name, parent, start, end, _attrs in spans:
            if parent >= 0:
                covered[parent] += end - start
        self._total = Counter()
        self._self = Counter()
        self._calls = Counter()
        self._attrs = Counter()
        self._under = Counter()
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            dur = end - start
            self._total[name] += dur
            self._self[name] += dur - covered[i]
            self._calls[name] += 1
            self._under[name, spans[parent][0] if parent >= 0 else None] += dur
            for key, value in (attrs or {}).items():
                self._attrs[name, key] += value

    def total(self, name, parent=None) -> float:
        """Summed inclusive duration of the spans called ``name``.

        With ``parent``, only spans whose parent span is called ``parent``.
        """
        return self._total[name] if parent is None else self._under[name, parent]

    def self_time(self, name) -> float:
        """Span time of ``name`` minus the time covered by its child spans."""
        return self._self[name]

    def calls(self, name) -> int:
        return self._calls[name]

    def attr_sum(self, name, key):
        return self._attrs[name, key]


def _rebind(original, replacement) -> None:
    """Point every primeangle module attribute bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "primeangle" or mod_name.startswith("primeangle.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _patch(module, attr, make) -> None:
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(make(raw.__func__)))
        else:
            setattr(cls, meth, make(raw))
    else:
        original = getattr(module, attr)
        _rebind(original, make(original))


def install(tracer: Tracer, cli_main):
    """Wrap the traced functions; returns ``cli_main`` wrapped in its own span."""
    import importlib

    for mod, attr, name, attrs in SPANS:
        module = importlib.import_module(f"primeangle.{mod}")
        _patch(module, attr, lambda fn, name=name, attrs=attrs: tracer.span(name, fn, attrs))
    for mod, attr, name in COUNTERS:
        module = importlib.import_module(f"primeangle.{mod}")
        _patch(module, attr, lambda fn, name=name: tracer.counter(name, fn))
    criteria = importlib.import_module("primeangle.acceptance").CRITERIA
    for k, fn in list(criteria.items()):
        criteria[k] = tracer.span(f"acceptance.criterion_{k}", fn)
    return tracer.span(CLI_SPAN, cli_main)
