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
    json_float,
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


def _build_config(args, **defaults) -> ExperimentConfig:
    """The config of --config and the flags; ``defaults`` fill keys neither gives."""
    data = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_float=json_float)
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
    if args.out is not None:
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
    err = DEFAULT_ERR_TARGET if args.precision is None else parse_precision(args.precision)
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
        points = json.load(fh, parse_float=json_float)
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

CONFIG_FLAGS = (*(flag for flag in FLAG_KEYS if flag != "--format"), "--config")
# Each subcommand: its handler, its help line and its arguments after --format
# and --out, in help order.  A string names an OPTIONS flag, required if it
# ends in "!"; a pair is an argument of the subcommand's own.
COMMANDS = {
    "convergents": (cmd_convergents, "continued-fraction terms and convergents", (
        "--alpha!", ("--count", dict(type=int, default=10)))),
    "angle": (cmd_angle, "certified ||n*alpha||", (
        "--alpha!", "--precision", ("--n", dict(type=int, required=True)),
        ("--n-max", dict(type=int, default=None, help="oracle reach (default max(1, |n|))")))),
    "sieve": (cmd_sieve, "primes and prime powers in (lo, hi]", (
        ("--lo", dict(type=int, required=True)), ("--hi", dict(type=int, required=True)))),
    "psi": (cmd_psi, "sum of Lambda(n) over the window (X-Y, X]", ("--x!", "--y!")),
    "count": (cmd_count, "count primes with ||p*alpha|| < delta in the window",
              (*CONFIG_FLAGS, "--force")),
    "ssum": (cmd_ssum, "smoothed sum of Lambda(n) F(n*alpha) vs delta*Y",
             (*CONFIG_FLAGS, "--force")),
    "vaughan-check": (cmd_vaughan_check, "decomposition identity residuals", (
        ("--u", dict(type=float, default=4.0)), ("--v", dict(type=float, default=4.0)),
        ("--n-lo", dict(type=int, default=5)), ("--n-hi", dict(type=int, default=200)),
        ("--verbose-rows", dict(action="store_true")))),
    "minsum": (cmd_minsum, "min-sum vs the standard estimate", (
        "--alpha!", ("--m", dict(type=int, required=True)),
        ("--cap", dict(type=float, required=True, help="the cap N")),
        ("--q", dict(type=int, required=True)))),
    "t1": (cmd_t1, "dyadic type I sum with comparator chain", (
        *CONFIG_FLAGS, "--force", ("--h", dict(type=float, required=True)))),
    "t2": (cmd_t2, "bilinear type II block with bound chain", (
        *CONFIG_FLAGS, "--force", ("--h", dict(type=float, required=True)),
        ("--m-block", dict(type=int, required=True)))),
    "bounds": (cmd_bounds, "full dyadic bound suite", (*CONFIG_FLAGS, "--force")),
    "admissible": (cmd_admissible, "hypothesis checks and the q window", CONFIG_FLAGS),
    "sweep": (cmd_sweep, "run a list of config points, JSON or CSV out", (
        "--force",
        ("--points", dict(type=str, required=True,
                          help="JSON file holding a list of config objects")),
        ("--runs", dict(type=str, default="prime_count,smoothed_sum",
                        help="comma list from: prime_count,smoothed_sum,bound_suite")))),
    "verify": (cmd_verify, "run the acceptance suite", (
        ("--seed", dict(type=int, default=DEFAULT_SEED, help="seed of the acceptance run")),
        ("--criteria", dict(type=str, default=None,
                            help="comma list of criterion numbers (default: all)")))),
}


class _Unparsed(Exception):
    """A parse error of a one-subcommand parser; the full parser reports it."""


class _OneCommandParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Unparsed(message)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone.

    Building all 14 subcommands takes about 3 ms, and 4-6 ms on the
    first call of a process, which every count or ssum call would pay;
    building one takes about a fifth of that.  So parse_args builds only
    the subcommand its first argument names.  That parser raises
    _Unparsed instead of printing an error, since its usage line would
    list one subcommand; a subcommand's own --help is the same text
    either way.
    """
    parser = (argparse.ArgumentParser if command is None else _OneCommandParser)(
        prog="primeangle", allow_abbrev=False,
        description="Desk-scale laboratory for primes p with ||p*alpha|| small "
                    "in short intervals (X-Y, X]")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS if command is None else (command,):
        fn, help_text, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(fn=fn)
        for arg in ("--format", "--out", *arguments):
            if isinstance(arg, tuple):
                p.add_argument(arg[0], **arg[1])
            elif arg.endswith("!"):
                p.add_argument(arg[:-1], **OPTIONS[arg[:-1]], required=True)
            else:
                p.add_argument(arg, **OPTIONS[arg])
    return parser


def parse_args(argv=None) -> argparse.Namespace:
    """The namespace of argv; help and errors print and exit as the full parser's do."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Unparsed:
            pass    # the full parser prints the error, with its own usage line
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
