"""Command-line interface.

Every subcommand emits one JSON document on stdout (or to --out); sweeps
can emit CSV instead.  Human-oriented progress lines go to stderr so the
machine-readable stream stays clean.  A fixed configuration, precision and
seed reproduce output byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import run_acceptance
from .alpha import build_angle_oracle, cf_terms, convergents, parse_alpha
from .config import (
    DEFAULT_SEED,
    ExperimentConfig,
    check_admissible,
    config_from_dict,
    parse_precision,
    require_admissible,
    select_q,
)
from .experiments import (
    attach_envelope,
    build_sum_context,
    run_bound_suite,
    run_prime_count,
    run_smoothed_sum,
    sweep,
)
from .expsum import MinSumInstance, min_sum, standard_estimate_bound
from .report import report_to_json, reports_to_csv
from .sieve import mangoldt_sum_interval, sieve_segments, small_tables
from .vaughan import VaughanParams, t1_sum, t2_bound_chain, t2_sum, vaughan_pieces

Q_POLICY_ALIASES = {
    "strict": "strict-window",
    "nearest": "nearest-convergent",
    "strict-window": "strict-window",
    "nearest-convergent": "nearest-convergent",
}


OPTIONS = {
    "--format": dict(choices=["json", "csv"]),
    "--out": dict(help="write output to this path"),
    "--x": dict(type=int, help="right endpoint X of the window (X-Y, X]"),
    "--y": dict(type=int, help="window length Y"),
    "--delta": dict(type=float, help="angle threshold in (0, 1/2]"),
    "--eps": dict(type=float, help="exponent margin epsilon"),
    "--alpha": dict(help="alpha spec: sqrt:<d> | surd:<a>,<b>,<c>,<d> | cf:<a0>;<pre>;<period>"),
    "--precision": dict(help="certified angle error target, e.g. 2^-40"),
    "--q-policy": dict(choices=sorted(Q_POLICY_ALIASES)),
    "--budget": dict(type=float, help="operation budget"),
    "--seed": dict(type=int, help="seed recorded in reports"),
    "--config": dict(help="JSON config file; explicit flags override it"),
    "--force": dict(action="store_true", help="run even if the configuration is inadmissible"),
}
CONFIG_FLAGS = ("--x", "--y", "--delta", "--eps", "--alpha", "--precision", "--q-policy",
                "--budget", "--seed", "--config")


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
    overrides = {
        "X": args.x,
        "Y": args.y,
        "delta": args.delta,
        "eps": args.eps,
        "alpha": args.alpha,
        "err_target": parse_precision(args.precision) if args.precision else None,
        "q_policy": Q_POLICY_ALIASES[args.q_policy] if args.q_policy else None,
        "budget": args.budget,
        "seed": args.seed,
        "format": args.format,
    }
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    for key, value in defaults.items():
        data.setdefault(key, value)
    return config_from_dict(data)


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
    convs = convergents(alpha, args.count)
    _emit(args, {
        "alpha": alpha.canonical(),
        "terms": cf_terms(alpha, args.count),
        "convergents": [{"n": c.n, "p": str(c.p), "q": str(c.q)} for c in convs],
    })
    return 0


def cmd_angle(args):
    alpha = parse_alpha(args.alpha)
    n_max = args.n_max or args.n
    err = parse_precision(args.precision) if args.precision else 2.0 ** -40
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
    params = VaughanParams(U=args.u, V=args.v, X=limit)
    rows = []
    worst = 0.0
    for n in range(max(args.n_lo, int(args.u) + 1), args.n_hi + 1):
        a1, a2, a3 = vaughan_pieces(n, params, tables)
        residual = abs(tables.mangoldt(n) - (a1 - a2 - a3))
        worst = max(worst, residual)
        if args.verbose_rows:
            rows.append({"n": n, "A1": a1, "A2": a2, "A3": a3, "residual": residual})
    payload = {"U": args.u, "V": args.v, "n_lo": args.n_lo, "n_hi": args.n_hi,
               "max_residual": worst, "ok": worst <= 1e-9}
    if rows:
        payload["rows"] = rows
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


def cmd_t1(args):
    config = _build_config(args)
    require_admissible(config, args.force)
    ctx = build_sum_context(config)
    conv, in_window = select_q(config)
    report = t1_sum(args.h, ctx, conv.q)
    report.q_window = config.q_window()
    report.q_in_window = in_window
    _emit(args, attach_envelope(report, config))
    return 0


def cmd_t2(args):
    config = _build_config(args)
    require_admissible(config, args.force)
    ctx = build_sum_context(config)
    conv, in_window = select_q(config)
    report = t2_sum(args.h, args.m_block, ctx)
    report.q_used = conv.q
    report.q_window = config.q_window()
    report.q_in_window = in_window
    doc = attach_envelope(report, config)
    doc["chain"] = t2_bound_chain(args.h, args.m_block, config.X, config.Y,
                                  config.delta, config.eps, conv.q)
    _emit(args, doc)
    return 0


def cmd_bounds(args):
    return _run_point(args, run_bound_suite)


def cmd_admissible(args):
    config = _build_config(args, alpha="sqrt:2")  # admissibility does not depend on alpha
    report = check_admissible(config)
    _emit(args, {"config": config.as_dict(), **report.as_dict()})
    return 0


def cmd_sweep(args):
    with open(args.points, "r", encoding="utf-8") as fh:
        points = json.load(fh)
    if not isinstance(points, list):
        raise ValueError("sweep file must hold a JSON list of config objects")
    runs = tuple(args.runs.split(",")) if args.runs else ("prime_count", "smoothed_sum")
    rows = sweep(points, runs=runs, force=args.force)
    _emit(args, rows, rows_for_csv=rows)
    return 0


def cmd_verify(args):
    criteria = [int(tok) for tok in args.criteria.split(",")] if args.criteria else None
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
    output, config = _parent("--format", "--out"), _parent(*CONFIG_FLAGS)
    force, alpha = _parent("--force"), _parent("--alpha", required=True)

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=[output, *parents], allow_abbrev=False)
        p.set_defaults(fn=fn)
        return p

    p = add("convergents", cmd_convergents, "continued-fraction terms and convergents", alpha)
    p.add_argument("--count", type=int, default=10)

    p = add("angle", cmd_angle, "certified ||n*alpha||", alpha, _parent("--precision"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n-max", type=int, default=None)

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
    p.add_argument("--runs", type=str, default=None,
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
