"""End-to-end runners: smoothed sums, prime counts, bound suite, sweeps."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primeangle import experiments, sieve, vaughan
from primeangle.acceptance import ALPHA_PANEL
from primeangle.alpha import AlphaSpec, AngleOracle, parse_alpha
from primeangle.config import ExperimentConfig, InadmissibleConfig, config_from_dict
from primeangle.experiments import (
    ERROR_CODES,
    attach_envelope,
    run_bound_suite,
    run_prime_count,
    run_smoothed_sum,
    sweep,
)
from primeangle.report import SumReport, report_to_json, reports_to_csv
from primeangle.sieve import mangoldt_sum_interval
from primeangle.vaughan import BilinearCoeffs

SQRT2 = AlphaSpec.sqrt(2)
GOLDEN = AlphaSpec.golden()


def desk_config(**kw):
    defaults = dict(X=10 ** 6, Y=10 ** 5, delta=0.45, eps=0.01, alpha=SQRT2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def tiny_config(**kw):
    defaults = dict(X=500, Y=150, delta=0.3, eps=0.05, alpha=SQRT2)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_smoothed_sum_desk_scale():
    report = run_smoothed_sum(desk_config())
    assert report.main_term == pytest.approx(45000.0)
    assert 0.85 <= report.ratio <= 1.15
    assert report.q_used == 408 and report.q_in_window is False
    assert "q-out-of-window" in report.flags


def test_smoothed_sum_tracks_psi_at_delta_half():
    # at delta = 1/2 the weight is nearly flat near its mean, so the value
    # tracks delta * (psi window) closely
    config = desk_config(delta=0.5)
    report = run_smoothed_sum(config)
    psi = mangoldt_sum_interval(config.X, config.Y)
    assert report.bound_terms["psi_window"] == pytest.approx(psi, rel=1e-12)
    assert abs(report.value - 0.5 * psi) <= 0.05 * 0.5 * psi


def test_smoothed_sum_empty_window():
    report = run_smoothed_sum(desk_config(Y=0))
    assert report.value == 0.0 and report.main_term == 0.0
    assert report.ratio is None
    assert "empty-window" in report.flags


def test_smoothed_sum_gate():
    with pytest.raises(InadmissibleConfig):
        run_smoothed_sum(desk_config(Y=10 ** 4))
    report = run_smoothed_sum(desk_config(Y=10 ** 4), force=True)
    assert "inadmissible-forced" in report.flags


@pytest.mark.parametrize("alpha", ALPHA_PANEL + (parse_alpha("cf:1;2,3;4,5"),),
                         ids=lambda a: a.canonical())
def test_prime_count_is_exact_at_every_precision(alpha):
    # a coarser oracle leaves more primes to the decision in alpha, never
    # a different count
    config = desk_config(delta=0.1, alpha=alpha)
    reports = [run_prime_count(replace(config, err_target=2.0 ** -k), force=True)
               for k in (40, 20, 12, 6)]
    assert len({r.value for r in reports}) == 1
    decided = [r.bound_terms["boundary_count"] for r in reports]
    assert decided[0] == 0 < decided[-1] and decided == sorted(decided)
    assert all(r.flags == reports[0].flags for r in reports)


def test_prime_count_sqrt2():
    report = run_prime_count(desk_config(delta=0.05), force=True)
    assert report.main_term == pytest.approx(723.8241365054197)
    assert abs(report.value - report.main_term) <= 0.15 * report.main_term
    assert report.bound_terms["boundary_count"] == 0.0


def test_prime_count_delta_half_counts_all_primes():
    config = desk_config(delta=0.5)
    report = run_prime_count(config)
    assert report.value == report.bound_terms["interval_primes"]


def test_prime_count_golden():
    report = run_prime_count(desk_config(delta=0.05, alpha=GOLDEN), force=True)
    assert abs(report.value - report.main_term) <= 0.15 * report.main_term


def test_bound_suite_tiny():
    result = run_bound_suite(tiny_config(), force=True)
    assert result["t1_blocks"], "expected at least one dyadic H block"
    assert result["t2_blocks"], "expected type II blocks"
    for block in result["t2_blocks"]:
        assert block["identity_residual"] <= 1e-9
        assert block["cauchy_ok"]
        chain = block["chain"]
        assert chain["selected"] in ("T2bound1", "T2bound2")
        assert set(chain["finalcondis"]["terms"]) == {
            "Y2_over_q", "X23Y_over_q", "X12Y", "X", "dYq", "dX23q", "dX23Y", "d2Xq"}
    has_gamma = [b for b in result["t2_blocks"] if "gamma_samples" in b]
    assert has_gamma
    for block in has_gamma:
        for l_str, (g0, g1) in block["gamma_samples"].items():
            assert g0 >= 0 and g1 >= 0
            if int(l_str) > 0:
                assert g0 == 0


def test_bound_suite_empty_grid_notice():
    # Y so small the dyadic type II ranges collapse
    result = run_bound_suite(tiny_config(X=512, Y=1, delta=0.5, eps=0.05), force=True)
    assert any(note.startswith("empty-grid") for note in result["notices"])


def test_bound_suite_empty_window():
    config = ExperimentConfig(X=20000, Y=0, delta=0.45, eps=0.01, alpha=SQRT2)
    result = run_bound_suite(config, force=True)
    assert result["s1"]["value"] == 0.0
    assert "empty-grid: every type II block had empty ranges" in result["notices"]
    assert all(b["chain"]["finalcondis"]["implied_eta"] is None for b in result["t2_blocks"])
    rows = sweep([config], runs=("bound_suite", "prime_count"), force=True)
    assert rows[0]["reports"]["bound_suite"] == result
    assert "empty-window" in rows[0]["reports"]["prime_count"]["flags"]


def test_sweep_order_and_error_isolation():
    good = desk_config().as_dict()  # admissible point
    bad = dict(good)
    bad["Y"] = 10 ** 4  # below the Y floor
    ugly = dict(good)
    ugly["alpha"] = "sqrt:nine"
    rows = sweep([good, bad, ugly], runs=("prime_count",))
    assert [row["index"] for row in rows] == [0, 1, 2]
    assert "reports" in rows[0]
    assert rows[1]["error"] == "inadmissible"
    assert rows[2]["error"] == "error"


def test_sweep_reports_non_integral_points():
    # X = 1000.7 used to be truncated to 1000 and run; now the row is an error
    good = tiny_config().as_dict()
    rows = sweep([dict(good, X=1000.7), dict(good, Y=True), good],
                 runs=("prime_count",), force=True)
    assert rows[0]["error"] == "error" and "X must be an integer" in rows[0]["error_detail"]
    assert rows[1]["error"] == "error" and "Y must be an integer" in rows[1]["error_detail"]
    assert "reports" in rows[2]


def test_sweep_row_for_y_above_x():
    # the config refuses the point, before any run reaches the sieve
    good = tiny_config().as_dict()
    rows = sweep([dict(good, Y=good["X"] + 1), good],
                 runs=("prime_count", "smoothed_sum", "bound_suite"), force=True)
    assert rows[0]["error"] == "error"
    assert rows[0]["error_detail"] == f"need Y <= X, got X={good['X']} and Y={good['X'] + 1}"
    assert "reports" in rows[1]


def test_sweep_row_for_a_window_below_two():
    # (X-Y, X] with X - Y < 2 used to reach the sieve's "need 2 <= lo < hi"
    good = tiny_config().as_dict()
    rows = sweep([dict(good, Y=good["X"] - 1), dict(good, Y=good["X"]), good],
                 runs=("prime_count", "smoothed_sum"), force=True)
    for row, Y in zip(rows, (good["X"] - 1, good["X"])):
        assert row["error"] == "error"
        assert row["error_detail"] == f"need X - Y >= 2 to sieve the window, got X={good['X']} and Y={Y}"
    assert "reports" in rows[2]


def test_sweep_two_points_trend():
    rows = sweep([
        desk_config(X=10 ** 5, Y=3 * 10 ** 4, delta=0.45, eps=0.01).as_dict(),
        desk_config(X=10 ** 6, Y=3 * 10 ** 5, delta=0.45, eps=0.01).as_dict(),
    ], runs=("smoothed_sum",), force=True)
    v0 = rows[0]["reports"]["smoothed_sum"]["value"]
    v1 = rows[1]["reports"]["smoothed_sum"]["value"]
    assert v1 > v0  # longer window, larger smoothed mass


# X = 2e4, Y = 8000 is admissible with q in its window for sqrt:2, and
# small enough for the bound suite
SHARED_BASE = dict(X=20000, Y=8000, delta=0.45, eps=0.01, alpha="sqrt:2")
SHARED_POINTS = [
    SHARED_BASE,
    dict(SHARED_BASE, Y=100),                            # inadmissible
    dict(SHARED_BASE, Y=0),                              # empty window
    dict(SHARED_BASE, alpha="cf:0;2,1000000000;1"),      # no q in the window
    dict(SHARED_BASE, budget=1000.0),                    # window over budget
    dict(SHARED_BASE, X=20000.5),                        # non-integral X
]


def separate_rows(points, runs, force):
    """Sweep rows built from one-kind runner calls, one call per report."""
    runners = {"prime_count": run_prime_count, "smoothed_sum": run_smoothed_sum,
               "bound_suite": run_bound_suite}
    rows = []
    for index, point in enumerate(points):
        row = {"index": index}
        try:
            config = config_from_dict(point)
            row["config"] = config.as_dict()
            reports = {}
            for name in runs:
                out = runners[name](config, force=force)
                reports[name] = out.as_dict() if isinstance(out, SumReport) else out
            row["reports"] = reports
        except Exception as exc:
            row["error"] = ERROR_CODES.get(type(exc), "error")
            row["error_detail"] = str(exc)
        rows.append(row)
    return rows


@pytest.mark.parametrize("runs", [None, ("smoothed_sum", "bound_suite", "prime_count")])
@pytest.mark.parametrize("force", [False, True])
def test_sweep_shared_pass_equals_separate_runs(runs, force):
    # runs=None is sweep's default, prime_count then smoothed_sum
    if runs is None:
        rows, runs = sweep(SHARED_POINTS, force=force), ("prime_count", "smoothed_sum")
    else:
        rows = sweep(SHARED_POINTS, runs=runs, force=force)
    want = separate_rows(SHARED_POINTS, runs, force)
    assert rows == want and report_to_json(rows) == report_to_json(want)
    # dict equality and sorted JSON both ignore key order, so check it apart
    assert [list(row["reports"]) for row in rows if "reports" in row] == [
        list(runs)] * sum("reports" in row for row in rows)
    if runs == ("prime_count", "smoothed_sum"):
        flags = [row["reports"]["prime_count"]["flags"] if "reports" in row else row["error"]
                 for row in rows]
        assert flags == [
            [], ["inadmissible-forced"] if force else "inadmissible", ["empty-window"],
            ["q-out-of-window"], "budget-exceeded", "error"]


def test_sweep_window_kinds_share_one_pass(monkeypatch):
    # both kinds of a point take one sieve pass, one oracle and one residues
    # call over each segment's primes; the smoothed sum adds one residues
    # call over the segment's higher powers, and a count alone never builds
    # the prime powers
    segments, oracles, residues, powers = [], [], [], []
    interval, build = sieve.sieve_interval, experiments.build_angle_oracle
    exact, higher = AngleOracle.residues, sieve._higher_powers
    monkeypatch.setattr(sieve, "sieve_interval",
                        lambda lo, hi, strikes: segments.append(interval(lo, hi, strikes))
                        or segments[-1])
    monkeypatch.setattr(experiments, "build_angle_oracle",
                        lambda *a, **k: oracles.append(build(*a, **k)) or oracles[-1])
    monkeypatch.setattr(AngleOracle, "residues",
                        lambda self, ns: residues.append(np.asarray(ns).tolist()) or exact(self, ns))
    monkeypatch.setattr(sieve, "_higher_powers", lambda *a: powers.append(a) or higher(*a))
    monkeypatch.setattr(sieve, "SEGMENT_SIZE", 3000)  # three segments per window
    rows = sweep([SHARED_BASE, SHARED_BASE], force=True)
    assert all("reports" in row for row in rows)
    assert len(segments) == 6 and len(oracles) == 2 and len(powers) == 6
    assert all(segment.higher_powers for segment in segments)
    assert residues == [ns for segment in segments
                        for ns in (segment.primes().tolist(),
                                   [n for n, _, _ in segment.higher_powers])]
    segments.clear(), oracles.clear(), residues.clear(), powers.clear()
    rows = sweep([SHARED_BASE], runs=("prime_count", "prime_count"), force=True)
    assert len(segments) == 3 and len(oracles) == 1 and powers == []  # duplicates collapsed
    assert residues == [segment.primes().tolist() for segment in segments]
    assert list(rows[0]["reports"]) == ["prime_count"]


def test_sweep_empty():
    assert sweep([]) == []
    assert reports_to_csv([]) == "\n"


def test_envelope_and_determinism():
    config = tiny_config()
    report1 = run_prime_count(config, force=True)
    report2 = run_prime_count(config, force=True)
    doc1 = report_to_json(attach_envelope(report1, config))
    doc2 = report_to_json(attach_envelope(report2, config))
    assert doc1 == doc2
    assert '"seed": 1729' in doc1
    assert '"config_echo"' in doc1


def test_csv_flattening():
    config = tiny_config()
    rows = sweep([config.as_dict()], runs=("prime_count",), force=True)
    csv_text = reports_to_csv(rows)
    header = csv_text.splitlines()[0]
    assert "reports.prime_count.value" in header
    assert "config.X" in header
    assert "reports.prime_count.bound_terms.boundary_count" in header


CSV_TEXT = st.text(st.sampled_from('ab ,"\n\r;.'), max_size=6)
CSV_CELL = st.one_of(st.none(), st.booleans(), st.integers(), CSV_TEXT,
                     st.lists(st.one_of(st.integers(), CSV_TEXT), max_size=3))


CSV_KEY = st.sampled_from(["a", "b,c", 'd"e', "f\ng"])
CSV_ROW = st.recursive(st.dictionaries(CSV_KEY, CSV_CELL, min_size=1),
                       lambda rows: st.dictionaries(CSV_KEY, st.one_of(CSV_CELL, rows), min_size=1),
                       max_leaves=12)


def flatten_by_recursion(prefix, obj, out):
    """Dotted header -> cell text, one call per key: the reference for reports_to_csv."""
    for key, value in obj.items():
        name = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            flatten_by_recursion(name, value, out)
        elif isinstance(value, list):
            out[name] = ";".join(map(str, value))
        else:
            out[name] = "" if value is None else str(value)
    return out


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(CSV_ROW, max_size=4))
def test_csv_reads_back_cell_for_cell(rows):
    flat_rows = [flatten_by_recursion("", row, {}) for row in rows]
    headers = sorted({key for flat in flat_rows for key in flat})
    expected = [headers] + [[flat.get(h, "") for h in headers] for flat in flat_rows]
    assert list(csv.reader(io.StringIO(reports_to_csv(rows), newline=""))) == expected


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_json_refuses_non_finite(bad):
    with pytest.raises(ValueError):
        report_to_json({"value": bad})


def test_bound_suite_builds_coeffs_once(monkeypatch):
    calls = []
    build = BilinearCoeffs.build

    def counting_build(*args):
        calls.append(args[:2])
        return build(*args)

    monkeypatch.setattr(BilinearCoeffs, "build", staticmethod(counting_build))
    result = run_bound_suite(tiny_config(), force=True)
    assert len(result["t2_blocks"]) > 1
    assert len(calls) == 1


def test_bound_suite_runs_each_min_sum_once(monkeypatch):
    calls = []
    counted = vaughan.min_sum
    monkeypatch.setattr(vaughan, "min_sum", lambda inst: calls.append(inst.M) or counted(inst))
    result = run_bound_suite(tiny_config(), force=True)
    pairs = [key for key in result["s1"]["bound_terms"] if key.startswith("chain.")]
    assert len(result["t1_blocks"]) > 1
    assert len(calls) == len(pairs)    # one per (H, M) of the chain
