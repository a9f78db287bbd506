"""CLI surface: every subcommand, the config grammar, and output determinism."""

import argparse
import json
import subprocess
import sys

import pytest

from primeangle import sieve
from primeangle.cli import build_parser, main

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


def test_angle(capsys):
    doc = run_json(["angle", "--alpha", "sqrt:2", "--n", "5",
                    "--precision", "2^-40"], capsys)
    assert abs(doc["angle"] - 0.0710678118654752) < 1e-10
    assert doc["certified_error"] <= 2.0 ** -40


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

    def one_segment(seg_lo, seg_hi):
        widths.append(seg_hi - seg_lo)
        return sieve_interval(seg_lo, seg_hi)

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


def test_vaughan_check(capsys):
    doc = run_json(["vaughan-check", "--u", "4", "--v", "4",
                    "--n-lo", "5", "--n-hi", "500"], capsys)
    assert doc["ok"] is True
    assert doc["max_residual"] <= 1e-9


def test_minsum(capsys):
    doc = run_json(["minsum", "--alpha", "sqrt:2", "--m", "10",
                    "--cap", "100", "--q", "29"], capsys)
    assert abs(doc["min_sum"] - 55.25827403) < 1e-6
    assert doc["branch"] == "small-M"


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


def test_sweep_error_rows(tmp_path, capsys):
    points = [
        {"X": 10 ** 6, "Y": 10 ** 5, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
        {"X": 10 ** 6, "Y": 10, "delta": 0.45, "eps": 0.01, "alpha": "sqrt:2"},
    ]
    path = tmp_path / "points.json"
    path.write_text(json.dumps(points))
    rows = run_json(["sweep", "--points", str(path), "--runs", "prime_count"], capsys)
    assert "reports" in rows[0]
    assert rows[1]["error"] == "inadmissible"


def test_verify_subset_deterministic(capsys):
    code1, out1, err1 = run_cli(["verify", "--criteria", "1,4", "--seed", "1729"], capsys)
    code2, out2, _ = run_cli(["verify", "--criteria", "1,4", "--seed", "1729"], capsys)
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
