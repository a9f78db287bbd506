"""Command-line interface.

Every subcommand emits one JSON document on stdout (or to --out); sweeps
can emit CSV instead.  Human-oriented progress lines go to stderr so the
machine-readable stream stays clean.  A fixed configuration, precision and
seed reproduce output byte for byte.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .acceptance import run_acceptance
from .alpha import DEFAULT_ERR_TARGET, build_angle_oracle, cf_terms, convergent_stream, parse_alpha
from .config import (
    DEFAULT_SEED,
    FORMATS,
    Q_POLICY_ALIASES,
    ExperimentConfig,
    check_admissible,
    config_from_dict,
    parse_precision,
)
from .experiments import (
    attach_envelope,
    run_bound_suite,
    run_prime_count,
    run_smoothed_sum,
    run_tasks,
    sweep,
)
from .expsum import MinSumInstance, min_sum, standard_estimate_bound
from .report import report_to_json, reports_to_csv
from .sieve import mangoldt_sum_interval, sieve_segments, small_tables
from .vaughan import VaughanParams, t1_task, t2_task, vaughan_pieces

OPTIONS = {
    "--format": dict(choices=FORMATS),
    "--out": dict(help="write output to this path"),
    "--x": dict(type=int, help="right endpoint X of the window (X-Y, X]"),
    "--y": dict(type=int, help="window length Y"),
    "--delta": dict(type=float, help="angle threshold in (0, 1/2]"),
    "--eps": dict(type=float, help="exponent margin epsilon"),
    "--alpha": dict(help="alpha spec: sqrt:<d> | surd:<a>,<b>,<c>,<d> | cf:<a0>;<pre>;<period>"),
    "--precision": dict(help="certified angle error target, e.g. 2^-40"),
    "--q-policy": dict(choices=sorted(Q_POLICY_ALIASES)),
    "--budget": dict(type=float, help="most cells any one stage may build (default 1e9)"),
    "--seed": dict(type=int, help="seed recorded in reports"),
    "--config": dict(help="JSON config file; explicit flags override it"),
    "--force": dict(action="store_true", help="run even if the configuration is inadmissible"),
}
# Each config flag and the config key it sets; --format is also an output flag.
FLAG_KEYS = {"--x": "X", "--y": "Y", "--delta": "delta", "--eps": "eps", "--alpha": "alpha",
             "--precision": "err_target", "--q-policy": "q_policy", "--budget": "budget",
             "--seed": "seed", "--format": "format"}


def _parent(*flags, **extra):
    """A parent parser holding the named OPTIONS, each with the ``extra`` settings."""
    parser = argparse.ArgumentParser(add_help=False)
    for flag in flags:
        parser.add_argument(flag, **OPTIONS[flag], **extra)
    return parser


def _build_config(args, **defaults) -> ExperimentConfig:
    """The config of --config and the flags; ``defaults`` fill keys neither gives."""
    data = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("--config must hold a single JSON object")
    for flag, key in FLAG_KEYS.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            data[key] = value
    for key, value in defaults.items():
        data.setdefault(key, value)
    config = config_from_dict(data)
    args.format = config.format    # so the document has the format its config echo names
    return config


def _emit(args, payload, rows_for_csv=None) -> None:
    fmt = args.format or "json"
    if fmt == "csv":
        text = reports_to_csv(rows_for_csv if rows_for_csv is not None else [payload])
    else:
        text = report_to_json(payload) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_convergents(args):
    alpha = parse_alpha(args.alpha)
    if args.count < 2:
        raise ValueError("count must be >= 2")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    too_long = 10 ** limit
    convs = []
    for c in itertools.islice(convergent_stream(alpha), args.count):
        if limit and (abs(c.p) >= too_long or c.q >= too_long):
            raise ValueError(f"--count {args.count} reaches convergents of more than {limit} "
                             f"digits, Python's limit for integer string conversion")
        convs.append(c)
    _emit(args, {
        "alpha": alpha.canonical(),
        "terms": cf_terms(alpha, args.count),
        "convergents": [{"n": c.n, "p": str(c.p), "q": str(c.q)} for c in convs],
    })
    return 0


def cmd_angle(args):
    alpha = parse_alpha(args.alpha)
    n_max = max(1, abs(args.n)) if args.n_max is None else args.n_max
    err = parse_precision(args.precision) if args.precision else DEFAULT_ERR_TARGET
    oracle = build_angle_oracle(alpha, n_max=n_max, err_target=err)
    value, ebound = oracle.dist(args.n)
    _emit(args, {
        "alpha": alpha.canonical(),
        "n": args.n,
        "angle": value,
        "certified_error": ebound,
        "anchor_q_digits": len(str(oracle.anchor.q)),
    })
    return 0


def cmd_sieve(args):
    # one segment at a time, so memory does not grow with the window
    count, first, powers = 0, [], []
    for segment in sieve_segments(args.lo, args.hi):
        count += segment.prime_count()
        if len(first) < 20:
            first.extend(segment.primes()[:20 - len(first)].tolist())
        powers.extend(segment.higher_powers)
    _emit(args, {
        "lo": args.lo,
        "hi": args.hi,
        "prime_count": count,
        "first_primes": first,
        "higher_prime_powers": [[n, p, k] for n, p, k in powers],
    })
    return 0


def cmd_psi(args):
    value = mangoldt_sum_interval(args.x, args.y)
    _emit(args, {
        "X": args.x,
        "Y": args.y,
        "psi_window": value,
        "ratio_to_Y": value / args.y,
    })
    return 0


def _run_point(args, runner):
    config = _build_config(args)
    _emit(args, attach_envelope(runner(config, force=args.force), config))
    return 0


def cmd_count(args):
    return _run_point(args, run_prime_count)


def cmd_ssum(args):
    return _run_point(args, run_smoothed_sum)


def cmd_vaughan_check(args):
    limit = max(args.n_hi, 16)
    tables = small_tables(limit)
    a1, a2, a3 = vaughan_pieces(VaughanParams(U=args.u, V=args.v, X=limit), tables)
    ns = np.arange(max(args.n_lo, int(args.u) + 1), args.n_hi + 1)
    residuals = np.abs(tables.lam - (a1 - a2 - a3))
    worst = float(residuals[ns].max(initial=0.0))
    payload = {"U": args.u, "V": args.v, "n_lo": args.n_lo, "n_hi": args.n_hi,
               "max_residual": worst, "ok": worst <= 1e-9}
    if args.verbose_rows and ns.size:
        payload["rows"] = [{"n": n, "A1": float(a1[n]), "A2": float(a2[n]), "A3": float(a3[n]),
                            "residual": float(residuals[n])} for n in ns.tolist()]
    _emit(args, payload)
    return 0


def cmd_minsum(args):
    alpha = parse_alpha(args.alpha)
    oracle = build_angle_oracle(alpha, n_max=args.m)
    inst = MinSumInstance(M=args.m, N=args.cap, oracle=oracle, q=args.q)
    res = min_sum(inst)
    branch, bound = standard_estimate_bound(args.m, args.cap, args.q)
    _emit(args, {
        "alpha": alpha.canonical(),
        "M": args.m,
        "N": args.cap,
        "q": args.q,
        "min_sum": res.value,
        "switch_flags": res.switch_flags,
        "branch": branch,
        "standard_bound": bound,
        "ratio": res.value / bound,
    })
    return 0


def _run_task(args, make_task):
    """One task of the bound suite, on the config of the flags, with the q fields."""
    config = _build_config(args)
    _, q_fields, [doc] = run_tasks(config, lambda ctx: [make_task(ctx)], args.force)
    _emit(args, attach_envelope({**doc, **q_fields}, config))
    return 0


def cmd_t1(args):
    return _run_task(args, lambda ctx: t1_task(ctx, args.h))


def cmd_t2(args):
    return _run_task(args, lambda ctx: t2_task(ctx, args.h, args.m_block))


def cmd_bounds(args):
    return _run_point(args, run_bound_suite)


def cmd_admissible(args):
    config = _build_config(args, alpha="sqrt:2")  # admissibility does not depend on alpha
    report = check_admissible(config)
    _emit(args, {"config": config.as_dict(), **report.as_dict()})
    return 0


def cmd_sweep(args):
    if not args.runs.replace(",", "").strip():
        raise ValueError("--runs selects no runs")
    with open(args.points, "r", encoding="utf-8") as fh:
        points = json.load(fh)
    if not isinstance(points, list):
        raise ValueError("sweep file must hold a JSON list of config objects")
    rows = sweep(points, runs=args.runs.split(","), force=args.force)
    _emit(args, rows, rows_for_csv=rows)
    return 0


def cmd_verify(args):
    text, criteria = args.criteria, None
    if text is not None:
        criteria = []
        for tok in text.split(",") if text.strip() else []:
            try:
                criteria.append(int(tok))
            except ValueError:
                raise ValueError(f"--criteria {text!r}: {tok!r} is not an integer") from None
    payload = run_acceptance(criteria, seed=args.seed, progress=sys.stderr)
    _emit(args, payload)
    return 0 if payload["all_passed"] else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primeangle", allow_abbrev=False,
        description="Desk-scale laboratory for primes p with ||p*alpha|| small "
                    "in short intervals (X-Y, X]")
    sub = parser.add_subparsers(dest="command", required=True)
    output = _parent("--format", "--out")
    config = _parent(*(flag for flag in FLAG_KEYS if flag != "--format"), "--config")
    force, alpha = _parent("--force"), _parent("--alpha", required=True)

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=[output, *parents], allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = add("convergents", cmd_convergents, "continued-fraction terms and convergents", alpha)
    p.add_argument("--count", type=int, default=10)

    p = add("angle", cmd_angle, "certified ||n*alpha||", alpha, _parent("--precision"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None, help="oracle reach (default max(1, |n|))")

    p = add("sieve", cmd_sieve, "primes and prime powers in (lo, hi]")
    p.add_argument("--lo", type=int, required=True)
    p.add_argument("--hi", type=int, required=True)

    add("psi", cmd_psi, "sum of Lambda(n) over the window (X-Y, X]",
        _parent("--x", "--y", required=True))

    add("count", cmd_count, "count primes with ||p*alpha|| < delta in the window",
        config, force)
    add("ssum", cmd_ssum, "smoothed sum of Lambda(n) F(n*alpha) vs delta*Y", config, force)

    p = add("vaughan-check", cmd_vaughan_check, "decomposition identity residuals")
    p.add_argument("--u", type=float, default=4.0)
    p.add_argument("--v", type=float, default=4.0)
    p.add_argument("--n-lo", type=int, default=5)
    p.add_argument("--n-hi", type=int, default=200)
    p.add_argument("--verbose-rows", action="store_true")

    p = add("minsum", cmd_minsum, "min-sum vs the standard estimate", alpha)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--cap", type=float, required=True, help="the cap N")
    p.add_argument("--q", type=int, required=True)

    p = add("t1", cmd_t1, "dyadic type I sum with comparator chain", config, force)
    p.add_argument("--h", type=float, required=True)

    p = add("t2", cmd_t2, "bilinear type II block with bound chain", config, force)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--m-block", type=int, required=True)

    add("bounds", cmd_bounds, "full dyadic bound suite", config, force)
    add("admissible", cmd_admissible, "hypothesis checks and the q window", config)

    p = add("sweep", cmd_sweep, "run a list of config points, JSON or CSV out", force)
    p.add_argument("--points", type=str, required=True,
                   help="JSON file holding a list of config objects")
    p.add_argument("--runs", type=str, default="prime_count,smoothed_sum",
                   help="comma list from: prime_count,smoothed_sum,bound_suite")

    p = add("verify", cmd_verify, "run the acceptance suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed of the acceptance run")
    p.add_argument("--criteria", type=str, default=None,
                   help="comma list of criterion numbers (default: all)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
