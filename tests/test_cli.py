"""CLI surface: every subcommand, the config grammar, and output determinism."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys

import pytest

import primeangle.alpha as alpha_mod
import primeangle.config as config_mod
from primeangle import acceptance, cli, experiments, sieve, vaughan
from primeangle.cli import build_parser, main
from primeangle.experiments import sweep
from primeangle.report import reports_to_csv

RUN = [sys.executable, "-m", "primeangle.cli"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0, out
    return json.loads(out)


def test_convergents(capsys):
    doc = run_json(["convergents", "--alpha", "sqrt:2", "--count", "6"], capsys)
    assert doc["terms"] == [1, 2, 2, 2, 2, 2]
    assert doc["convergents"][3] == {"n": 3, "p": "17", "q": "12"}


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no limit on integer string conversion")
def test_convergents_count_beyond_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    alpha = "cf:1;;" + "9" * (limit // 2 + 1)   # q_2 = a^2 + 1 has more than limit digits
    doc = run_json(["convergents", "--alpha", alpha, "--count", "2"], capsys)
    assert len(doc["convergents"][1]["q"]) == limit // 2 + 1
    code, out, err = run_cli(["convergents", "--alpha", alpha, "--count", "3"], capsys)
    assert code == 1 and out == ""
    assert f"--count 3 reaches convergents of more than {limit} digits" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no limit on integer string conversion")
def test_convergents_stop_at_the_first_one_past_the_digit_limit(capsys, monkeypatch):
    walked = []
    stream = cli.convergent_stream

    def counted(alpha):
        for c in stream(alpha):
            walked.append(c)
            yield c

    monkeypatch.setattr(cli, "convergent_stream", counted)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(["convergents", "--alpha", "sqrt:2", "--count", "100000"],
                                 capsys)
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 1 and out == ""
    assert "--count 100000 reaches convergents of more than 640 digits" in err
    too_long = [max(abs(c.p), c.q) >= 10 ** 640 for c in walked]
    assert too_long == [False] * (len(walked) - 1) + [True]


def test_angle(capsys):
    doc = run_json(["angle", "--alpha", "sqrt:2", "--n", "5",
                    "--precision", "2^-40"], capsys)
    assert abs(doc["angle"] - 0.0710678118654752) < 1e-10
    assert doc["certified_error"] <= 2.0 ** -40


def test_angle_at_a_precision_whose_threshold_overflows_a_float(capsys, monkeypatch):
    # n_max / 2^-1070 is past the float range; the anchor test runs in
    # integers, so the walk stops at Q^2 >= 1000 * 2^1070 and does not run
    # to the cap, which is lowered here so that a walk that never stops fails fast
    monkeypatch.setattr(alpha_mod, "CF_ITERATION_CAP", 1000)
    doc = run_json(["angle", "--alpha", "sqrt:2", "--n", "1000", "--precision", "2^-1070"],
                   capsys)
    assert doc["anchor_q_digits"] == 163
    assert abs(doc["angle"] - 0.2135623730950488) < 1e-15   # 1000 sqrt2 = 1414.2135...


def test_angle_prints_an_error_bar_below_the_float_range_as_the_least_float(capsys):
    # n_max/Q^2 is about 1e-324 with the 164-digit anchor: rounded to
    # nearest it would print 0.0, a bar below the true bound
    doc = run_json(["angle", "--alpha", "sqrt:2", "--n", "1000", "--precision", "2^-1074"],
                   capsys)
    assert doc["anchor_q_digits"] == 164
    assert doc["certified_error"] == 5e-324


def test_angle_of_negative_and_zero_n(capsys):
    # ||n alpha|| is defined for every |n| <= n_max, which defaults to max(1, |n|)
    pos = run_json(["angle", "--alpha", "sqrt:2", "--n", "5"], capsys)
    neg = run_json(["angle", "--alpha", "sqrt:2", "--n", "-5"], capsys)
    assert neg["angle"] == pos["angle"]
    assert run_json(["angle", "--alpha", "sqrt:2", "--n", "0"], capsys)["angle"] == 0.0
    # an explicit --n-max 0 is taken as given, and rejected
    code, _, err = run_cli(["angle", "--alpha", "sqrt:2", "--n", "0", "--n-max", "0"], capsys)
    assert code == 1 and "n_max must be >= 1" in err


def test_sieve(capsys):
    doc = run_json(["sieve", "--lo", "50", "--hi", "100"], capsys)
    assert doc["prime_count"] == 10
    assert [64, 2, 6] in doc["higher_prime_powers"]


def test_sieve_streams_the_window_in_segments(capsys, monkeypatch):
    # 347^2 = 120409 closes the tenth 64-number segment, and the first 20
    # primes span several segments; no sieve is wider than one segment
    lo, hi = 120409 - 640, 120409 + 256
    sieve_interval = sieve.sieve_interval
    whole = sieve_interval(lo, hi)
    widths = []

    def one_segment(seg_lo, seg_hi, strikes):
        widths.append(seg_hi - seg_lo)
        return sieve_interval(seg_lo, seg_hi, strikes)

    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 64)
    monkeypatch.setattr(sieve, "sieve_interval", one_segment)
    doc = run_json(["sieve", "--lo", str(lo), "--hi", str(hi)], capsys)
    assert doc == {"lo": lo, "hi": hi, "prime_count": whole.prime_count(),
                   "first_primes": whole.primes()[:20].tolist(),
                   "higher_prime_powers": [list(t) for t in whole.higher_powers]}
    assert [120409, 347, 2] in doc["higher_prime_powers"]
    assert len(widths) == 14 and max(widths) == 64


def test_psi(capsys):
    doc = run_json(["psi", "--x", "100", "--y", "50"], capsys)
    assert abs(doc["psi_window"] - 44.55993043693902) < 1e-9


def test_count_with_flags(capsys):
    doc = run_json(["count", "--x", "1000000", "--y", "100000", "--delta", "0.05",
                    "--eps", "0.01", "--alpha", "sqrt:2", "--force"], capsys)
    assert doc["kind"] == "prime_count"
    assert abs(doc["value"] - doc["main_term"]) <= 0.15 * doc["main_term"]
    assert doc["config_echo"]["alpha"] == "sqrt:2"
    assert doc["seed"] == 1729


def test_ssum_admissible(capsys):
    doc = run_json(["ssum", "--x", "1000000", "--y", "100000", "--delta", "0.45",
                    "--eps", "0.01", "--alpha", "sqrt:2"], capsys)
    assert 0.85 <= doc["ratio"] <= 1.15
    assert doc["q_used"] == 408


def test_ssum_rejects_a_delta_whose_square_underflows(capsys, monkeypatch):
    point = ["--x", "1000000", "--y", "100000", "--delta", "1e-300", "--eps", "0.01",
             "--alpha", "sqrt:2", "--force"]

    def no_window_work(*args):
        raise AssertionError("the window was sieved")

    with monkeypatch.context() as m:
        m.setattr(experiments, "sieve_segments", no_window_work)
        code, out, err = run_cli(["ssum"] + point, capsys)
    assert code == 1 and out == ""
    assert err == ("error: delta must lie in [1.4916681462400413e-154, 1/2] for the "
                   "direct form of the weight, got 1e-300\n")
    doc = run_json(["count"] + point, capsys)   # the count takes no square of delta
    assert doc["value"] == 0.0 and "inadmissible-forced" in doc["flags"]


def test_vaughan_check(capsys):
    doc = run_json(["vaughan-check", "--u", "4", "--v", "4",
                    "--n-lo", "5", "--n-hi", "500"], capsys)
    assert doc["ok"] is True
    assert doc["max_residual"] <= 1e-9
    rows = run_json(["vaughan-check", "--u", "4", "--v", "4", "--n-lo", "5", "--n-hi", "500",
                     "--verbose-rows"], capsys)["rows"]
    assert [row["n"] for row in rows] == list(range(5, 501))
    assert max(row["residual"] for row in rows) == doc["max_residual"]
    assert abs(rows[101 - 5]["A1"] - math.log(101)) < 1e-12


@pytest.mark.parametrize("cut", ["u", "v"])
def test_vaughan_check_rejects_a_nan_cut(cut, capsys):
    code, out, err = run_cli(["vaughan-check", f"--{cut}", "nan"], capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: need a finite cut, got {cut.upper()}=nan"]


def test_minsum(capsys):
    doc = run_json(["minsum", "--alpha", "sqrt:2", "--m", "10",
                    "--cap", "100", "--q", "29"], capsys)
    assert abs(doc["min_sum"] - 55.25827403) < 1e-6
    assert doc["branch"] == "small-M"


@pytest.mark.parametrize("cap", ["nan", "inf", "-inf"])
def test_minsum_rejects_a_non_finite_cap(cap, capsys):
    code, _, err = run_cli(["minsum", "--alpha", "sqrt:2", "--m", "10",
                            f"--cap={cap}", "--q", "29"], capsys)
    assert code == 1
    assert err.strip() == f"error: the cap N must be finite, got {float(cap)!r}"


def test_t1_t2_and_bounds(capsys):
    base = ["--x", "500", "--y", "150", "--delta", "0.3", "--eps", "0.05",
            "--alpha", "sqrt:2", "--force"]
    doc = run_json(["t1", "--h", "2"] + base, capsys)
    assert doc["kind"] == "t1_sum"
    assert "comparator.total" in doc["bound_terms"]
    doc = run_json(["t2", "--h", "2", "--m-block", "16"] + base, capsys)
    assert doc["kind"] == "t2_sum"
    assert doc["chain"]["selected"] in ("T2bound1", "T2bound2")
    doc = run_json(["bounds"] + base, capsys)
    assert doc["t2_blocks"]
    assert all(b["identity_residual"] <= 1e-9 for b in doc["t2_blocks"])


Q_FIELDS = ("q_used", "q_window", "q_in_window")


def test_t1_prints_the_t1_block_of_bounds(capsys):
    # the t1 command walks only its block's harmonics, bounds walks them all
    # once for s1 and every T1; each T1 block is the same (the command also
    # fills the q window fields, which bounds reports once, at the top)
    base = ["--x", "1000", "--y", "300", "--delta", "0.3", "--eps", "0.05",
            "--alpha", "sqrt:2", "--force"]
    bounds = run_json(["bounds"] + base, capsys)
    blocks = bounds["t1_blocks"]
    hs = vaughan.dyadic_h_blocks(math.ceil(1000 ** 0.05 / 0.3))
    assert len(blocks) == len(hs) == 3
    for H, block in zip(hs, blocks):
        doc = run_json(["t1", "--h", repr(H)] + base, capsys)
        assert (block["q_window"], block["q_in_window"]) == (None, None)
        assert {key: doc[key] for key in block if key not in ("q_window", "q_in_window")} \
            == {key: block[key] for key in block if key not in ("q_window", "q_in_window")}
        assert {key: doc[key] for key in Q_FIELDS} == {key: bounds[key] for key in Q_FIELDS}


def test_t2_prints_the_q_fields_and_chain_of_bounds(capsys):
    # t2, t1 and bounds run through one task runner: the same gate, context
    # and q fields, and t2's chain (its qc_window among the conditions) is
    # the chain of the matching block of bounds
    base = ["--x", "1000", "--y", "300", "--delta", "0.3", "--eps", "0.05",
            "--alpha", "sqrt:2", "--force"]
    bounds = run_json(["bounds"] + base, capsys)
    assert bounds["t2_blocks"]
    for block in bounds["t2_blocks"]:
        doc = run_json(["t2", "--h", repr(block["H"]), "--m-block", str(block["M"])] + base, capsys)
        assert doc["chain"] == block["chain"]
        assert doc["chain"]["conditions"]["qc_window"] == bounds["q_in_window"]
        assert {key: doc[key] for key in Q_FIELDS} == {key: bounds[key] for key in Q_FIELDS}


@pytest.mark.parametrize("command", [["bounds"], ["t2", "--h", "1", "--m-block", "32"]])
def test_the_chains_q_window_verdict_is_the_documents(command, capsys):
    # Y = 0 puts the raw q window at [0, 0], below 1; select_q looks in [1, 1]
    # and finds q = 1 there, and every chain must give that same verdict
    doc = run_json(command + ["--x", "20000", "--y", "0", "--delta", "0.45", "--eps", "0.01",
                              "--alpha", "sqrt:2", "--force"], capsys)
    chains = [block["chain"] for block in doc.get("t2_blocks", [doc])]
    assert (doc["q_used"], doc["q_window"], doc["q_in_window"]) == (1, [0.0, 0.0], True)
    assert chains and all(chain["conditions"]["qc_window"] is True for chain in chains)


def test_y_above_x_is_refused_by_the_config(capsys):
    # the sieve's own "need 2 <= lo < hi" used to leak out of count
    code, out, err = run_cli(["count", "--x", "1000000", "--y", "10000000", "--delta", "0.1",
                              "--eps", "0.01", "--alpha", "sqrt:2", "--force"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: need Y <= X, got X=1000000 and Y=10000000\n"


@pytest.mark.parametrize("command", ["count", "ssum"])
@pytest.mark.parametrize("x,y", [(3, 3), (1000, 999)])
def test_a_window_reaching_below_two_is_refused(command, x, y, capsys):
    # the sieve's own "need 2 <= lo < hi" used to leak out for a forced X - Y < 2
    code, out, err = run_cli([command, "--x", str(x), "--y", str(y), "--delta", "0.3",
                              "--eps", "0.01", "--alpha", "sqrt:2", "--force"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: need X - Y >= 2 to sieve the window, got X={x} and Y={y}\n"


@pytest.mark.parametrize("command", [["bounds"], ["t1", "--h", "1"],
                                     ["t2", "--h", "1", "--m-block", "8"]])
def test_bound_commands_run_on_the_whole_of_0_x(command, capsys):
    # they sieve nothing, so Y = X is a point they can run
    doc = run_json(command + ["--x", "100", "--y", "100", "--delta", "0.3", "--eps", "0.01",
                              "--alpha", "sqrt:2", "--force"], capsys)
    assert doc["config_echo"]["Y"] == 100


@pytest.mark.parametrize("block,message", [
    (["t2", "--h", "100", "--m-block", "16"], "need 1 <= H <= L, got H=100.0 and L=5"),
    (["t1", "--h", "0.5"], "need 1 <= H <= L, got H=0.5 and L=5"),
    (["t2", "--h", "2", "--m-block", "2000"],
     "need X^(1/3) <= M <= X^(2/3), got M=2000 and X=2000"),
    (["t2", "--h", "2", "--m-block", "8"], "need X^(1/3) <= M <= X^(2/3), got M=8 and X=2000"),
])
def test_a_block_outside_its_range_is_refused_with_its_values(block, message, capsys):
    code, out, err = run_cli(block + ["--x", "2000", "--y", "500", "--delta", "0.3",
                                      "--eps", "0.05", "--alpha", "sqrt:2", "--force"], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["sieve", "--lo", "1", "--hi", "10"], "need 2 <= lo < hi, got lo=1 and hi=10"),
    (["sieve", "--lo", "10", "--hi", "10"], "need 2 <= lo < hi, got lo=10 and hi=10"),
    (["psi", "--x", "100", "--y", "60"], "need 2 <= Y <= X/2, got X=100 and Y=60"),
    (["psi", "--x", "100", "--y", "1"], "need 2 <= Y <= X/2, got X=100 and Y=1"),
    # M is checked before an oracle is built for m <= M
    (["minsum", "--alpha", "sqrt:2", "--m", "0", "--cap", "5", "--q", "3"],
     "need M, N, q >= 1, got M=0, N=5.0 and q=3"),
    (["minsum", "--alpha", "sqrt:2", "--m", "4", "--cap", "0.5", "--q", "3"],
     "need M, N, q >= 1, got M=4, N=0.5 and q=3"),
    (["minsum", "--alpha", "sqrt:2", "--m", "4", "--cap", "5", "--q", "0"],
     "need M, N, q >= 1, got M=4, N=5.0 and q=0"),
    # X is the table limit max(n_hi, 16)
    (["vaughan-check", "--u", "100", "--v", "100", "--n-hi", "50"],
     "need U*V <= X, got U=100.0, V=100.0 and X=50"),
    (["vaughan-check", "--u", "5", "--v", "5", "--n-hi", "10"],
     "need U*V <= X, got U=5.0, V=5.0 and X=16"),
    (["vaughan-check", "--u", "0.5"], "need U, V >= 1, got U=0.5 and V=4.0"),
])
def test_a_refusal_names_its_values(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command,precision,message", [
    ("admissible", "5", "err_target must lie in (0, 1/4), got 5.0"),
    ("bounds", "0.9", "err_target must lie in (0, 1/4), got 0.9"),
    ("count", "2^x", "precision '2^x' is not a float-sized 2^<integer>"),
    ("angle", "2^-4.5", "precision '2^-4.5' is not a float-sized 2^<integer>"),
    # a nonzero precision that rounds to 0.0 is named as given
    ("count", "2^-1100", "err_target must lie in (0, 1/4), got '2^-1100', which rounds to 0.0"),
    ("angle", "1e-400", "err_target must lie in (0, 1/4), got '1e-400', which rounds to 0.0"),
    ("angle", "0.5", "err_target must lie in (0, 1/4), got 0.5"),
    # an empty precision is parsed, not taken for an absent flag
    ("angle", "", "could not convert string to float: ''"),
])
def test_a_bad_precision_is_refused(command, precision, message, capsys):
    if command == "angle":
        flags = ["--alpha", "sqrt:2", "--n", "5"]
    else:
        flags = ["--x", "500", "--y", "150", "--delta", "0.3", "--eps", "0.05",
                 "--alpha", "sqrt:2"] + (["--force"] if command != "admissible" else [])
    code, out, err = run_cli([command] + flags + ["--precision", precision], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_bounds_on_an_empty_window(capsys):
    doc = run_json(["bounds", "--x", "20000", "--y", "0", "--delta", "0.45", "--eps", "0.01",
                    "--alpha", "sqrt:2", "--force"], capsys)
    assert doc["s1"]["value"] == 0.0
    assert "empty-grid: every type II block had empty ranges" in doc["notices"]


def test_admissible(capsys):
    doc = run_json(["admissible", "--x", "1000000", "--y", "100000",
                    "--delta", "0.45", "--eps", "0.01"], capsys)
    assert doc["ok"] is True
    assert abs(doc["q_window"][0] - 292.9459419014239) < 1e-6
    doc = run_json(["admissible", "--x", "1000000", "--y", "500001",
                    "--delta", "0.45", "--eps", "0.01"], capsys)
    assert doc["ok"] is False
    names = [c["name"] for c in doc["checks"] if not c["ok"]]
    assert "Y <= X/2" in names


def test_config_file_and_override(tmp_path, capsys):
    config = {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.45, "eps": 0.01,
              "alpha": "sqrt:2"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    doc = run_json(["admissible", "--config", str(path)], capsys)
    assert doc["ok"] is True
    doc = run_json(["admissible", "--config", str(path), "--y", "500001"], capsys)
    assert doc["ok"] is False


def test_config_file_aliases_and_format(tmp_path, capsys):
    config = {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.45, "eps": 0.01,
              "alpha": "sqrt:2", "q_policy": "nearest", "format": "csv"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _err = run_cli(["count", "--config", str(path)], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["config_echo.format"] == "csv"
    assert rows[0]["config_echo.q_policy"] == "nearest-convergent"
    doc = run_json(["count", "--config", str(path), "--format", "json"], capsys)
    assert doc["config_echo"]["format"] == "json"
    assert rows[0]["value"] == str(doc["value"])


@pytest.mark.parametrize("argv", [
    ["count", "--x", "500", "--y", "150", "--delta", "0.3", "--eps", "0.05", "--alpha", "sqrt:2",
     "--force", "--config", ""],
    ["sieve", "--lo", "50", "--hi", "60", "--out", ""],
], ids=["config", "out"])
def test_an_empty_path_is_refused(argv, capsys):
    # an empty --config or --out names no file; it is not taken for an absent flag
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "No such file or directory: ''" in err


def test_config_rejects_unknown_keys(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"X": 100, "Y": 10, "delta": 0.3, "eps": 0.05,
                                "alpha": "sqrt:2", "mystery": 1}))
    code, _out, err = run_cli(["admissible", "--config", str(path)], capsys)
    assert code == 1
    assert "unknown config keys" in err


def test_sweep_csv(tmp_path, capsys):
    points = [
        {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.05, "eps": 0.01, "alpha": "sqrt:2"},
        {"X": 10 ** 6, "Y": 10 ** 4, "delta": 0.05, "eps": 0.01, "alpha": "sqrt:2"},
    ]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    out_path = tmp_path / "sweep.csv"
    code, _out, _err = run_cli(["sweep", "--points", str(path), "--runs", "prime_count",
                                "--format", "csv", "--out", str(out_path),
                                "--force"], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert "reports.prime_count.value" in lines[0]
    assert len(lines) == 3


def test_sweep_csv_runs_both_window_kinds_by_default(tmp_path, capsys):
    points = [
        {"X": 20000, "Y": 8000, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
        {"X": 20000, "Y": 100, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
    ]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    out_path = tmp_path / "sweep.csv"
    code, _out, _err = run_cli(["sweep", "--points", str(path), "--format", "csv",
                                "--out", str(out_path)], capsys)
    assert code == 0
    text = out_path.read_text()
    assert text == reports_to_csv(sweep(points))
    header, first, second = text.splitlines()
    assert "reports.prime_count.value" in header and "reports.smoothed_sum.value" in header
    assert header.index("reports.prime_count.value") < header.index("reports.smoothed_sum.value")
    assert "inadmissible" in second


@pytest.mark.parametrize("runs", ["", " ", ","])
def test_sweep_rejects_an_empty_runs_list(tmp_path, capsys, runs):
    path = tmp_path / "points.json"
    path.write_text(json.dumps([{"X": 20000, "Y": 8000, "delta": 0.45, "eps": 0.01,
                                 "alpha": "sqrt:2"}]))
    code, out, err = run_cli(["sweep", "--points", str(path), "--runs", runs], capsys)
    assert code == 1 and out == ""
    assert "--runs" in err


def test_sweep_collapses_duplicate_runs(tmp_path, capsys, monkeypatch):
    path = tmp_path / "points.json"
    path.write_text(json.dumps([{"X": 20000, "Y": 8000, "delta": 0.45, "eps": 0.01,
                                 "alpha": "sqrt:2"}]))
    once = run_json(["sweep", "--points", str(path), "--runs", "smoothed_sum,prime_count"],
                    capsys)
    windows = []
    sieve_interval = sieve.sieve_interval
    monkeypatch.setattr(sieve, "sieve_interval",
                        lambda lo, hi, strikes: windows.append((lo, hi))
                        or sieve_interval(lo, hi, strikes))
    twice = run_json(["sweep", "--points", str(path),
                      "--runs", "smoothed_sum,prime_count,smoothed_sum,prime_count"], capsys)
    assert twice == once
    assert windows == [(12000, 20000)]  # one window pass for all four


def test_sweep_error_rows(tmp_path, capsys):
    points = [
        {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
        {"X": 10 ** 6, "Y": 10, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
        {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2",
         "q_policy": "strict"},
    ]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    rows = run_json(["sweep", "--points", str(path), "--runs", "prime_count"], capsys)
    assert "reports" in rows[0]
    assert rows[1]["error"] == "inadmissible"
    assert rows[2]["error"] == "q-window-miss"
    assert rows[2]["error_detail"].startswith("no convergent denominator in [292.946, 336.347]")


def test_verify_subset_deterministic(capsys):
    code1, out1, err1 = run_cli(["verify", "--criteria", "1,7,8", "--seed", "1729"], capsys)
    code2, out2, _ = run_cli(["verify", "--criteria", "1,7,8", "--seed", "1729"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports
    assert "criterion  1" in err1 and "PASS" in err1


def test_verify_via_subprocess(tmp_path):
    out_path = tmp_path / "verify.json"
    proc = subprocess.run(
        RUN + ["verify", "--criteria", "1", "--out", str(out_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out_path.read_text())
    assert doc["all_passed"] is True
    assert "[PASS] criterion  1" in proc.stderr


def test_error_exit_code(capsys):
    code, _out, err = run_cli(["angle", "--alpha", "sqrt:4", "--n", "5"], capsys)
    assert code == 1
    assert "perfect square" in err


def test_budget_flag_guard(capsys):
    code, _out, err = run_cli(
        ["bounds", "--x", "500", "--y", "150", "--delta", "0.3", "--eps", "0.05",
         "--alpha", "sqrt:2", "--force", "--budget", "10"], capsys)
    assert code == 1
    assert "budget" in err.lower()


def test_bounds_charges_the_kernel_before_building_it(capsys, monkeypatch):
    def built(*args):
        raise AssertionError("the kernel was built")

    monkeypatch.setattr(vaughan, "build_kernel", built)
    code, out, err = run_cli(
        ["bounds", "--x", "500", "--y", "150", "--delta", "0.3", "--eps", "5",
         "--alpha", "sqrt:2", "--force"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: kernel cost 1.04e+14 exceeds budget 1e+09\n"


@pytest.mark.parametrize("argv", [
    ["admissible", "--delta", "0.1", "--eps", "6"],
    ["admissible", "--delta", "0.1", "--eps", "20"],
    ["count", "--delta", "1e-300", "--eps", "5", "--alpha", "sqrt:2", "--force"],
    ["count", "--delta", "0.1", "--eps", "60", "--alpha", "sqrt:2", "--force"],
    ["count", "--delta", "5e-324", "--eps", "0.05", "--alpha", "sqrt:2", "--force"],
])
def test_non_finite_derived_floats_rejected(argv, capsys):
    code, out, err = run_cli(argv + ["--x", "1000000", "--y", "100000"], capsys)
    assert (code, out) == (1, "")
    eps, delta = float(argv[argv.index("--eps") + 1]), float(argv[argv.index("--delta") + 1])
    assert err.startswith(f"error: X=1000000, Y=100000, eps={eps!r} and delta={delta!r} give ")


def test_verify_byte_identical_across_processes(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        proc = subprocess.run(
            RUN + ["verify", "--criteria", "1,4,5", "--seed", "1729",
                   "--out", str(path)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


OUTPUT = {"--format", "--out"}
CONFIG = {"--x", "--y", "--delta", "--eps", "--alpha", "--precision", "--q-policy",
          "--budget", "--seed", "--config"}
FLAGS = {
    "convergents": OUTPUT | {"--alpha", "--count"},
    "angle": OUTPUT | {"--alpha", "--precision", "--n", "--n-max"},
    "sieve": OUTPUT | {"--lo", "--hi"},
    "psi": OUTPUT | {"--x", "--y"},
    "count": OUTPUT | CONFIG | {"--force"},
    "ssum": OUTPUT | CONFIG | {"--force"},
    "vaughan-check": OUTPUT | {"--u", "--v", "--n-lo", "--n-hi", "--verbose-rows"},
    "minsum": OUTPUT | {"--alpha", "--m", "--cap", "--q"},
    "t1": OUTPUT | CONFIG | {"--force", "--h"},
    "t2": OUTPUT | CONFIG | {"--force", "--h", "--m-block"},
    "bounds": OUTPUT | CONFIG | {"--force"},
    "admissible": OUTPUT | CONFIG,
    "sweep": OUTPUT | {"--force", "--points", "--runs"},
    "verify": OUTPUT | {"--seed", "--criteria"},
}


def _subcommands():
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_each_subcommand_takes_only_the_flags_it_reads():
    subcommands = _subcommands()
    assert set(subcommands) == set(FLAGS)
    for name, parser in subcommands.items():
        flags = {opt for a in parser._actions for opt in a.option_strings
                 if opt.startswith("--") and opt != "--help"}
        assert flags == FLAGS[name], name


def test_the_flag_map_covers_every_config_flag():
    # admissible takes the output flags and the config parent's flags, nothing else
    flags = {action.option_strings[0]: action.dest for action in _subcommands()["admissible"]._actions
             if action.option_strings[0] not in ("-h", "--out", "--config")}
    assert flags == {flag: flag[2:].replace("-", "_") for flag in cli.FLAG_KEYS}
    assert sorted(cli.FLAG_KEYS.values()) == sorted(config_mod.READERS)


POINT = ["--x", "500", "--y", "150", "--delta", "0.3", "--eps", "0.05", "--alpha", "sqrt:2"]
UNREAD = [
    ["convergents", "--alpha", "sqrt:2", "--x", "5"],
    ["angle", "--alpha", "sqrt:2", "--n", "5", "--force"],
    ["sieve", "--lo", "50", "--hi", "60", "--x", "5", "--alpha", "sqrt:2", "--force"],
    ["psi", "--x", "100", "--y", "50", "--alpha", "sqrt:2"],
    ["count"] + POINT + ["--points", "p.json"],
    ["ssum"] + POINT + ["--criteria", "1"],
    ["vaughan-check", "--force"],
    ["minsum", "--alpha", "sqrt:2", "--m", "10", "--cap", "100", "--q", "29", "--seed", "1"],
    ["t1", "--h", "2"] + POINT + ["--m-block", "16"],
    ["t2", "--h", "2", "--m-block", "16"] + POINT + ["--count", "3"],
    ["bounds"] + POINT + ["--lo", "5"],
    ["admissible"] + POINT + ["--force"],
    ["sweep", "--points", "p.json", "--x", "5"],
    ["verify", "--criteria", "1", "--force"],
]


@pytest.mark.parametrize("argv", UNREAD, ids=[argv[0] for argv in UNREAD])
def test_unread_flag_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["t1", "--h", "2"],
                                     ["t2", "--h", "2", "--m-block", "16"]])
def test_t1_t2_gate_inadmissible_point(command, capsys):
    code, _out, err = run_cli(command + POINT, capsys)
    assert code == 1
    assert "config violates" in err
    code, _out, _err = run_cli(command + POINT + ["--force"], capsys)
    assert code == 0


def test_psi_requires_x(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--y", "50"])
    assert exc.value.code == 2
    assert "--x" in capsys.readouterr().err


def test_verify_unknown_criterion(capsys):
    code, out, err = run_cli(["verify", "--criteria", "11"], capsys)
    assert code == 1
    assert out == ""
    assert "unknown criteria" in err


def test_verify_empty_criteria(capsys, monkeypatch):
    for k in acceptance.CRITERIA:
        monkeypatch.setitem(acceptance.CRITERIA, k, lambda seed, *first: {"name": "fake", "passed": True})
    code, out, err = run_cli(["verify", "--criteria", ""], capsys)
    assert code == 1
    assert out == ""
    assert "no criteria selected" in err


@pytest.mark.parametrize("criteria,token", [("1,,2", "''"), ("1,x", "'x'"), ("4,", "''")])
def test_verify_criteria_names_a_bad_token(criteria, token, capsys):
    code, out, err = run_cli(["verify", "--criteria", criteria], capsys)
    assert code == 1 and out == ""
    assert err == f"error: --criteria '{criteria}': {token} is not an integer\n"


def test_admissible_keeps_the_config_file_alpha(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"X": 1000, "Y": 300, "delta": 0.3, "eps": 0.05,
                                "alpha": "sqrt:3"}))
    doc = run_json(["admissible", "--config", str(path)], capsys)
    assert doc["config"]["alpha"] == "sqrt:3"
    doc = run_json(["admissible", "--config", str(path), "--alpha", "sqrt:5"], capsys)
    assert doc["config"]["alpha"] == "sqrt:5"
    doc = run_json(["admissible", "--x", "1000", "--y", "300", "--delta", "0.3",
                    "--eps", "0.05"], capsys)
    assert doc["config"]["alpha"] == "sqrt:2"


@pytest.mark.parametrize("argv", [
    ["bounds"] + POINT + ["--h", "2"],       # not --help
    ["sweep", "--p", "points.json"],         # not --points
    ["count"] + POINT + ["--forc"],          # not --force
], ids=["bounds", "sweep", "count"])
def test_flag_prefixes_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_budget_rejected(capsys):
    code, out, err = run_cli(["count", "--x", "100000", "--y", "1000", "--delta", "0.3",
                              "--eps", "0.05", "--alpha", "sqrt:2", "--force",
                              "--budget", "nan"], capsys)
    assert code == 1
    assert out == ""
    assert "budget must be finite" in err


def test_non_finite_eps_in_config_file_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"X": 1000, "Y": 300, "delta": 0.3, "eps": NaN, "alpha": "sqrt:2"}')
    code, out, err = run_cli(["ssum", "--config", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert "eps must be positive and finite" in err


def test_an_underflowing_number_in_a_config_file_is_named_as_written(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"X": 1000000, "Y": 100000, "delta": 0.3, "eps": 0.05, '
                    '"alpha": "sqrt:2", "err_target": 1e-400}')
    message = "err_target must lie in (0, 1/4), got '1e-400', which rounds to 0.0"
    code, out, err = run_cli(["count", "--config", str(path), "--force"], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    points = tmp_path / "points.json"
    points.write_text("[" + path.read_text() + "]")
    [row] = run_json(["sweep", "--points", str(points), "--force"], capsys)
    assert row["error_detail"] == message
    # the numbers of a valid config load as json.load reads them
    for text in ("0.0", "-0.0", "0e-400", "1e-300", "2.5e9", "0.1", "1e400"):
        assert config_mod.json_float(text) == json.loads(text)
    assert [config_mod.json_float(t) for t in ("1e-400", "-5E-324000")] == ["1e-400", "-5E-324000"]


# one argv per subcommand, with every kind of argument it takes
REPRESENTATIVE = [
    ["convergents", "--alpha", "sqrt:2", "--count", "3", "--format", "json"],
    ["angle", "--alpha", "sqrt:3", "--n", "-7", "--precision", "2^-30", "--n-max", "9"],
    ["sieve", "--lo=5", "--hi", "30", "--out", "sieve.json"],
    ["psi", "--x", "100", "--y", "50"],
    ["count"] + POINT + ["--q-policy", "strict", "--budget", "1e6", "--seed", "3"],
    ["ssum", "--config", "c.json", "--x", "5000", "--precision", "1e-9"],
    ["vaughan-check", "--u", "3", "--v", "5.5", "--n-lo", "2", "--n-hi", "40", "--verbose-rows"],
    ["minsum", "--alpha", "sqrt:2", "--m", "10", "--cap", "2.5", "--q", "5"],
    ["t1"] + POINT + ["--h", "2"],
    ["t2"] + POINT + ["--h", "2", "--m-block", "8", "--format", "csv"],
    ["bounds", "--config", "c.json", "--force"],
    ["admissible", "--x", "1000", "--y", "300", "--delta", "0.3", "--eps", "0.05"],
    ["sweep", "--points", "p.json", "--runs", "bound_suite", "--force"],
    ["verify", "--criteria", "1,7", "--seed", "4"],
]


def parsed(parse, argv, capsys):
    """(namespace or exit code, stdout, stderr) of parse(argv)."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_one_subcommand_parses_as_the_full_parser(capsys, monkeypatch):
    assert [argv[0] for argv in REPRESENTATIVE] == list(cli.COMMANDS)
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or
                        build_parser(command))
    for argv in REPRESENTATIVE:
        want = parsed(build_parser().parse_args, argv, capsys)
        built.clear()
        assert parsed(cli.parse_args, argv, capsys) == want
        assert built == [argv[0]], argv      # only the subcommand it names was built
        assert isinstance(want[0], dict)


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], [], ["bogus", "--x", "1"],
                                  ["count", "--x"], ["count"] + POINT + ["extra"],
                                  ["count", "--format", "xml"], ["psi", "--x", "100"],
                                  ["sieve", "--lo", "1"], ["angle", "--alpha", "sqrt:2"],
                                  ["verify", "--seed", "1.5"], ["count", "--forc"]]
                         + [[name, "--help"] for name in cli.COMMANDS],
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_help_and_errors_are_the_full_parsers(argv, capsys):
    # a missing or unknown subcommand, help and every parse error print the
    # full parser's text with its exit code
    want = parsed(build_parser().parse_args, argv, capsys)
    assert want[0] in (0, 2)
    assert parsed(cli.parse_args, argv, capsys) == want
