import csv
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import pqsched
from pqsched import (
    COMPLETED_ONLY,
    load_config,
    path_cost,
    quadratic_coefficients,
    relative_regret,
    run_path,
    save_config,
    workload_variance_rate,
)
from pqsched.cli import main
from conftest import make_two_class


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def config_path(tmp_path):
    cfg = make_two_class(lam=20.0)
    target = tmp_path / "system.json"
    save_config(cfg, target)
    return target


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _manifest(out_dir):
    with open(out_dir / "manifest.json") as fh:
        return json.load(fh)


def _csv_bytes(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}


# ---------------------------------------------------------------- simulate

def test_simulate_summary_and_manifest(runner, tmp_path, config_path):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--config", str(config_path),
                                  "--policy", "oracle", "--policy", "pcmu",
                                  "--paths", "6", "--seed", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_csv(out / "summary.csv")
    assert rows[0] == ["policy", "t", "mean_cost", "stderr", "ratio_to_oracle"]
    assert {r[0] for r in rows[1:]} == {"oracle", "pcmu"}
    man = _manifest(out)
    assert man["command"] == "simulate"
    assert man["config"] == str(config_path)
    assert man["outputs"] == ["summary.csv"]
    assert man["seed_schedule"] == {"base_seed": 3, "n_paths": 6}
    assert man["version"] == pqsched.__version__
    assert man["wall_clock_s"] >= 0.0


@pytest.mark.parametrize("paths", [1, 6])
def test_simulate_manifest_records_events(runner, tmp_path, config_path, paths):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--config", str(config_path), "--policy", "pcmu",
                                  "--policy", "fcfs", "--paths", str(paths), "--seed", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    events = _manifest(out)["events"]
    cfg = load_config(config_path)
    for kind in ("pcmu", "fcfs"):
        counts = [run_path(cfg, kind, 3 + i).event_count for i in range(paths)]
        assert events[kind] == {"total": sum(counts), "max_per_path": max(counts),
                                "event_cap_headroom": 1.0 - max(counts) / 5_000_000}


def test_simulate_manifest_records_open_jobs(runner, tmp_path, config_path):
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", "--config", str(config_path), "--policy", "pcmu",
                                  "--policy", "fcfs", "--paths", "6", "--seed", "3",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    open_jobs = _manifest(out)["open_jobs"]
    cfg = load_config(config_path)
    for kind in ("pcmu", "fcfs"):
        paths = [run_path(cfg, kind, 3 + i) for i in range(6)]
        counts = [int(np.count_nonzero(~p.done)) for p in paths]
        truncated = sum(path_cost(p, cfg).values[-1] for p in paths)
        completed = sum(path_cost(p, cfg, COMPLETED_ONLY).values[-1] for p in paths)
        assert sum(counts) > 0
        got = open_jobs[kind]
        assert (got["total"], got["max_per_path"]) == (sum(counts), max(counts))
        assert got["truncated_cost_share"] == pytest.approx(1.0 - completed / truncated,
                                                            rel=1e-9)


def test_simulate_single_path_exports_raw(runner, tmp_path, config_path):
    out = tmp_path / "raw"
    result = runner.invoke(main, ["simulate", "--config", str(config_path),
                                  "--policy", "pcmu", "--paths", "1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "jobs_pcmu.csv").exists()
    assert (out / "curves_pcmu.csv").exists()
    man = _manifest(out)
    assert man["outputs"] == ["curves_pcmu.csv", "jobs_pcmu.csv"]
    jobs = _read_csv(out / "jobs_pcmu.csv")
    assert jobs[0][0] == "id"
    assert len(jobs) > 1


def test_simulate_single_path_runs_a_repeated_policy_once(runner, tmp_path, config_path):
    out = tmp_path / "raw"
    result = runner.invoke(main, ["simulate", "--config", str(config_path), "--policy", "pcmu",
                                  "--policy", "fcfs", "--policy", "pcmu", "--paths", "1",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    runs = [line.split(":")[0] for line in result.output.splitlines() if "arrivals" in line]
    assert runs == ["pcmu", "fcfs"]
    man = _manifest(out)
    assert man["outputs"] == ["curves_fcfs.csv", "curves_pcmu.csv", "jobs_fcfs.csv",
                              "jobs_pcmu.csv"]
    assert man["grids"]["policies"] == ["pcmu", "fcfs"]


def test_simulate_identity_confusion_matches_oracle(runner, tmp_path):
    cfg = make_two_class(lam=20.0, confusion=((1.0, 0.0), (0.0, 1.0)))
    config_file = tmp_path / "ident.json"
    save_config(cfg, config_file)
    out = tmp_path / "ident_out"
    result = runner.invoke(main, ["simulate", "--config", str(config_file),
                                  "--policy", "oracle", "--policy", "pcmu",
                                  "--paths", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_csv(out / "summary.csv")[1:]
    by_policy = {}
    for policy, t, mean_cost, _, _ in rows:
        by_policy.setdefault(policy, []).append((float(t), float(mean_cost)))
    assert by_policy["oracle"] == by_policy["pcmu"]


def test_simulate_rerun_is_byte_identical(runner, tmp_path, config_path):
    args = ["simulate", "--config", str(config_path), "--paths", "5",
            "--seed", "1"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert _csv_bytes(out1) == _csv_bytes(out2)


# -------------------------------------------------------------- lower-bound

def test_lower_bound_outputs(runner, tmp_path, config_path):
    out = tmp_path / "lb"
    result = runner.invoke(main, ["lower-bound", "--config", str(config_path),
                                  "--paths", "50", "--steps", "120",
                                  "--seed", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_csv(out / "lower_bound.csv")
    assert rows[0] == ["quantity", "value"]
    table = {name: float(value) for name, value in rows[1:]}
    cfg = make_two_class(lam=20.0)
    assert table["variance_rate"] == pytest.approx(workload_variance_rate(cfg),
                                                   rel=1e-12)
    coeffs = quadratic_coefficients(cfg)
    assert table["jstar_coeff"] == pytest.approx(coeffs.jstar_coeff, rel=1e-12)
    assert table["jnaive_coeff"] == pytest.approx(coeffs.jnaive_coeff, rel=1e-12)
    assert table["relative_regret"] == pytest.approx(
        relative_regret(cfg), rel=1e-12)
    assert table["jstar_mean"] > 0.0
    assert table["jnaive_mean"] >= table["jstar_mean"]
    assert _manifest(out)["grids"] == {"n_steps": 120}


def test_lower_bound_manifest_records_exact_integral_and_block_rows(runner, tmp_path, config_path):
    out = tmp_path / "lb"
    result = runner.invoke(main, ["lower-bound", "--config", str(config_path), "--paths", "300",
                                  "--steps", "120", "--seed", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    cfg = make_two_class(lam=20.0)
    w = pqsched.bm_workload_paths(workload_variance_rate(cfg), 120, cfg.horizon, 300, 7)
    assert man["expected_integral_sq"] == 0.5 * workload_variance_rate(cfg) * cfg.horizon ** 2
    assert man["integral_sq_mean"] == float(w.integral_sq().mean())
    # a block may hold RBM_BLOCK_CELLS // 120 = 546 rows; the run's one block held its 300 paths
    assert w.block_rows == pqsched.httheory.RBM_BLOCK_CELLS // 120 == 546
    assert man["rbm_block_rows"] == min(w.n_paths, w.block_rows) == 300
    # the lower-bound table itself carries neither
    names = [row[0] for row in _read_csv(out / "lower_bound.csv")[1:]]
    assert "expected_integral_sq" not in names and "integral_sq_mean" not in names


def test_lower_bound_manifest_reports_the_block_rows_of_its_grid(runner, tmp_path, config_path):
    out = tmp_path / "lb"
    result = runner.invoke(main, ["lower-bound", "--config", str(config_path), "--paths", "100",
                                  "--steps", "1000", "--seed", "7", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _manifest(out)["rbm_block_rows"] == 65


# ------------------------------------------------------------- select-model

def test_select_model_ranks(runner, tmp_path, config_path):
    bare = tmp_path / "noisy.json"
    bare.write_text(json.dumps([[0.7, 0.3], [0.3, 0.7]]))
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"name": "sharp",
                                 "confusion": [[1.0, 0.0], [0.0, 1.0]]}))
    twin = tmp_path / "noisy_twin.json"
    twin.write_text(json.dumps([[0.7, 0.3], [0.3, 0.7]]))
    out = tmp_path / "select"
    result = runner.invoke(main, ["select-model", "--config", str(config_path),
                                  "--model", str(bare), "--model", str(named),
                                  "--model", str(twin), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_csv(out / "criteria.csv")
    assert rows[0] == ["model_name", "relative_regret", "jstar_coeff",
                       "jnaive_coeff"]
    names = [r[0] for r in rows[1:]]
    regrets = [float(r[1]) for r in rows[1:]]
    assert names == ["sharp", "noisy", "noisy_twin"]   # ascending, stable tie
    assert regrets == sorted(regrets)
    assert regrets[0] == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------ triage

TRIAGE_DOC = {
    "Lambda": 50000.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
    "curves": {"kind": "gaussian_logit", "loc": [-1.0, -3.0], "scale": [1.0, 1.0]},
    "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0, "c_tn": -3.0,
    "c_r": 800.0, "delay_costs": [15.0, 1.0],
}


@pytest.fixture
def triage_path(tmp_path):
    target = tmp_path / "triage.json"
    target.write_text(json.dumps(TRIAGE_DOC))
    return target


def test_triage_grid_csv(runner, tmp_path, triage_path):
    out = tmp_path / "triage_out"
    result = runner.invoke(main, ["triage", "--config", str(triage_path),
                                  "--zfl-grid", "0.2:0.4:3", "--ztx", "0.5",
                                  "--paths", "100", "--steps", "100",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = _read_csv(out / "triage.csv")
    assert rows[0] == ["z_fl", "z_tx", "gamma", "filtering", "hiring",
                       "misclass", "queueing", "total"]
    assert len(rows) == 1 + 3 + 1           # grid points + repeated argmin
    z_col = [float(r[0]) for r in rows[1:4]]
    assert z_col == pytest.approx([0.2, 0.3, 0.4])
    totals = [float(r[7]) for r in rows[1:4]]
    best_row = rows[4]
    assert float(best_row[7]) == pytest.approx(min(totals))
    assert "argmin" in result.output


def test_triage_rerun_is_byte_identical(runner, tmp_path, triage_path):
    args = ["triage", "--config", str(triage_path), "--zfl-grid", "0.1:0.3:3",
            "--paths", "80", "--steps", "100", "--seed", "5"]
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
    assert _csv_bytes(out1) == _csv_bytes(out2)


def test_triage_bad_grid_spec(runner, tmp_path, triage_path):
    result = runner.invoke(main, ["triage", "--config", str(triage_path),
                                  "--zfl-grid", "0.2:0.4",
                                  "--out", str(tmp_path / "x")])
    assert result.exit_code != 0
    assert "a:b:n" in result.output


# ---------------------------------------------------------------- estimate

def _validation_csv(tmp_path):
    rows = ["true_class,score,predicted_class,service_time"]
    rows += ["1,0.9,1,0.5"] * 6 + ["1,0.2,2,0.5"] * 2
    rows += ["2,0.1,2,1.0"] * 10 + ["2,0.8,1,1.0"] * 2
    target = tmp_path / "validation.csv"
    target.write_text("\n".join(rows) + "\n")
    return target


def test_estimate_full_columns(runner, tmp_path):
    csv_path = _validation_csv(tmp_path)
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    assert man["outputs"] == ["confusion.csv", "curves.csv", "rates.csv"]
    conf = _read_csv(out / "confusion.csv")
    assert conf[0] == ["true_class", "q_1", "q_2"]
    assert [float(x) for x in conf[1][1:]] == pytest.approx([0.75, 0.25])
    assert [float(x) for x in conf[2][1:]] == pytest.approx([1 / 6, 5 / 6])
    rates = _read_csv(out / "rates.csv")
    assert rates[0] == ["class", "prevalence", "mu_hat", "alpha_v_hat"]
    assert float(rates[1][2]) == pytest.approx(2.0)
    assert float(rates[2][2]) == pytest.approx(1.0)
    curves = _read_csv(out / "curves.csv")
    assert curves[0] == ["z", "g_toxic", "g_nontoxic"]


def test_estimate_threshold_mode(runner, tmp_path):
    rows = ["true_class,score"]
    rows += ["1,0.9", "1,0.6", "1,0.2", "2,0.7", "2,0.1", "2,0.3", "2,0.4"]
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "est_thresh"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path),
                                  "--threshold", "0.5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    conf = _read_csv(out / "confusion.csv")
    assert [float(x) for x in conf[1][1:]] == pytest.approx([2 / 3, 1 / 3])
    assert [float(x) for x in conf[2][1:]] == pytest.approx([0.25, 0.75])
    rates = _read_csv(out / "rates.csv")
    assert rates[0] == ["class", "prevalence"]     # no service_time column


def test_estimate_threshold_cites_csv_line(runner, tmp_path):
    # line 4 (the third data row) has a blank score
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("true_class,score\n1,0.9\n2,0.1\n1,\n2,0.3\n")
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path),
                                  "--threshold", "0.5", "--out", str(out)])
    _assert_one_line_error(result, "line 4: no score to threshold")


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
def test_estimate_non_finite_threshold_is_one_error_line(runner, tmp_path, threshold):
    # a NaN threshold once sent every score to class 2 and blamed class 1
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("true_class,score\n1,0.9\n2,0.1\n1,0.6\n2,0.3\n")
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path),
                                  "--threshold", threshold, "--out", str(out)])
    assert result.exit_code == 2
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: Invalid value: threshold must be finite, got {float(threshold)!r}"]
    assert not out.exists()


def test_estimate_manifest_records_rows_classes_and_skips(runner, tmp_path):
    # no predicted_class, a blank service time on line 3, three classes
    csv_path = tmp_path / "three.csv"
    csv_path.write_text("true_class,score,service_time\n1,0.9,0.5\n2,0.1,\n"
                        "3,0.4,1.0\n1,0.7,0.25\n")
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    assert man["outputs"] == ["rates.csv"]
    assert (man["rows"], man["classes"]) == (4, 3)
    assert man["skipped"] == [
        {"output": "confusion.csv",
         "reason": "no --threshold and predicted_class blank on line 2"},
        {"output": "rates.csv mu_hat, alpha_v_hat", "reason": "service_time blank on line 3"},
        {"output": "curves.csv", "reason": "pass-rate curves need 2 classes, found 3"},
    ]
    assert "curves.csv: skipped" in result.output
    assert _read_csv(out / "rates.csv") == [["class", "prevalence"], ["1", "0.5"],
                                            ["2", "0.25"], ["3", "0.25"]]


def test_estimate_manifest_with_nothing_skipped(runner, tmp_path):
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(_validation_csv(tmp_path)),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    assert (man["rows"], man["classes"], man["skipped"]) == (20, 2, [])


def test_estimate_threshold_ignores_a_stray_predicted_class(runner, tmp_path):
    # a threshold rule reads true classes and scores; predicted_class 3 is not read
    csv_path = tmp_path / "stray.csv"
    csv_path.write_text("true_class,score,predicted_class\n1,0.9,1\n2,0.1,2\n"
                        "1,0.7,3\n2,0.3,2\n")
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path), "--threshold", "0.5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert _read_csv(out / "confusion.csv")[1:] == [["1", "1.0", "0.0"], ["2", "0.0", "1.0"]]
    assert _manifest(out)["classes"] == 2


def test_estimate_rates_count_true_classes(runner, tmp_path):
    # predicted_class is blank on line 2, so there is no confusion; the rates
    # read true classes only, and a predicted class 3 adds no class to them
    csv_path = tmp_path / "blank.csv"
    csv_path.write_text("true_class,score,predicted_class,service_time\n1,0.9,,0.5\n"
                        "2,0.1,3,1.0\n1,0.7,1,0.5\n2,0.3,2,1.0\n")
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path), "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    assert man["outputs"] == ["curves.csv", "rates.csv"] and man["classes"] == 2
    assert _read_csv(out / "rates.csv") == [["class", "prevalence", "mu_hat", "alpha_v_hat"],
                                            ["1", "0.5", "2.0", "0.25"],
                                            ["2", "0.5", "1.0", "1.0"]]


@pytest.mark.parametrize("text, reader", [
    ("true_class,score,service_time\n1,0.9,0.5\n2,0.1,1.0\n", "numpy"),
    ('true_class,score,service_time\n1,"0.9",0.5\n2,0.1,1.0\n', "per-row"),
    ("true_class,score,service_time\r\n1,0.9,0.5\r\n2,0.1,1.0\r\n", "numpy"),
    ("true_class,score,service_time\r1,0.9,0.5\r2,0.1,1.0\r", "per-row"),
    ("true_class,score,service_time\n1,0.9\x1c,0.5\n2,0.1,1.0\n", "per-row"),
], ids=["clean", "quoted", "crlf", "lone-cr", "control-character"])
def test_estimate_manifest_names_reader_and_stage_timings(runner, tmp_path, text, reader):
    csv_path = tmp_path / "validation.csv"
    csv_path.write_bytes(text.encode("ascii"))
    out = tmp_path / "est"
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path), "--threshold", "0.5",
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    man = _manifest(out)
    assert man["reader"] == reader
    assert set(man["timings_s"]) == {"read", "confusion", "rates", "curves"}
    assert all(t >= 0.0 for t in man["timings_s"].values())


@pytest.mark.parametrize("data, needle", [
    (b"true_class,score\n1,0.5\n2,0.\xff5\n", "line 3: not UTF-8 (byte 0xff)"),
    (b"true_class,score\r\n1,0.5\r\n\xff", "line 3: not UTF-8 (byte 0xff)"),
    # a field over csv.field_size_limit(), quoted or not
    (b'true_class,score\n1,0.5\n2,"0.' + b"0" * 200_000 + b'5"\n',
     "line 3: field larger than field limit (131072)"),
    (b"true_class,score\n1,0." + b"0" * 200_000 + b"5\n2,0.5\n",
     "line 2: field larger than field limit (131072)"),
], ids=["not-utf8", "not-utf8-crlf", "long-quoted-field", "long-field"])
def test_estimate_unreadable_csv_is_one_line_error(runner, tmp_path, data, needle):
    csv_path = tmp_path / "validation.csv"
    csv_path.write_bytes(data)
    result = runner.invoke(main, ["estimate", "--csv", str(csv_path), "--threshold", "0.5",
                                  "--out", str(tmp_path / "est")])
    _assert_one_line_error(result, needle)
    if "UTF-8" in needle:
        assert str(csv_path) in result.output


def test_triage_manifest_records_grid_and_argmin(runner, tmp_path, triage_path):
    out = tmp_path / "triage_out"
    result = runner.invoke(main, ["triage", "--config", str(triage_path),
                                  "--zfl-grid", "0.2:0.4:5", "--ztx", "0.5",
                                  "--paths", "100", "--steps", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    best = _read_csv(out / "triage.csv")[-1]
    man = _manifest(out)
    assert man["grid_points"] == 5
    assert man["argmin"] == {"z_fl": float(best[0]), "z_tx": float(best[1])}


# ------------------------------------------------------------------ errors

def test_missing_config_file(runner, tmp_path):
    result = runner.invoke(main, ["simulate", "--config",
                                  str(tmp_path / "nope.json"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code != 0


def test_invalid_config_contents(runner, tmp_path):
    bad = tmp_path / "bad.json"
    from pqsched import config_to_json
    doc = config_to_json(make_two_class(lam=20.0))
    doc["service_rates"] = [-2.0, 1.0]
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["simulate", "--config", str(bad),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "NonPositiveRate" in result.output


def _assert_one_line_error(result, needle="not valid JSON"):
    assert result.exit_code == 1
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and needle in errors[0]


def test_truncated_config_json(runner, tmp_path, config_path):
    bad = tmp_path / "truncated.json"
    bad.write_text(config_path.read_text()[:40])
    result = runner.invoke(main, ["simulate", "--config", str(bad),
                                  "--out", str(tmp_path / "o")])
    _assert_one_line_error(result)


def test_truncated_model_json(runner, tmp_path, config_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"name": "m", "confusion": [[0.9, 0.1], [0.2')
    result = runner.invoke(main, ["select-model", "--config", str(config_path),
                                  "--model", str(bad), "--out", str(tmp_path / "o")])
    _assert_one_line_error(result)


def test_truncated_triage_json(runner, tmp_path):
    bad = tmp_path / "triage.json"
    bad.write_text('{"Lambda": 50000.0, "p": [0.2, ')
    result = runner.invoke(main, ["triage", "--config", str(bad),
                                  "--out", str(tmp_path / "o")])
    _assert_one_line_error(result)


def test_unknown_policy_rejected(runner, tmp_path, config_path):
    result = runner.invoke(main, ["simulate", "--config", str(config_path),
                                  "--policy", "lifo",
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code != 0


README_CONFIG = {
    "lambda": 1.0, "prevalences": [0.3, 0.7], "service_rates": [2.0, 1.0],
    "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 10.0, "power": 2.0}],
    "confusion": [[0.9, 0.1], [0.2, 0.8]], "horizon": 1.0,
}


@pytest.mark.parametrize("key", ["arrival_dist", "service_dist"])
def test_lower_bound_on_dict_form_lognormal(runner, tmp_path, key):
    # regression: lower-bound read tags as strings and crashed on the dict form
    cfg = tmp_path / "lognormal.json"
    cfg.write_text(json.dumps({**README_CONFIG, key: {"family": "lognormal", "sigma": 0.5}}))
    out = tmp_path / "lb"
    result = runner.invoke(main, ["lower-bound", "--config", str(cfg), "--paths", "20",
                                  "--steps", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    table = {name: float(value) for name, value in _read_csv(out / "lower_bound.csv")[1:]}
    lam, p, mu = 1.0, np.array([0.3, 0.7]), np.array([2.0, 1.0])
    scv = {"arrival_dist": (np.exp(0.25), 2.0), "service_dist": (2.0, np.exp(0.25))}[key]
    mean_work = float(p @ (1.0 / mu))
    c_u = scv[0] / lam ** 2 - 1.0 / lam ** 2          # E[U^2] - E[U]^2
    c_v = float(p @ (scv[1] / mu ** 2)) - mean_work ** 2
    expected = lam * c_v + lam ** 3 * c_u * mean_work ** 2
    assert table["variance_rate"] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("command", ["simulate", "lower-bound", "select-model"])
@pytest.mark.parametrize("tag", ["gamma", "lognormal:0.25", "lognormal",
                                 {"family": "lognormal", "sigma": "x"}, 5])
def test_bad_distribution_tag_fails_before_writing(runner, tmp_path, command, tag):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**README_CONFIG, "service_dist": tag}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(README_CONFIG["confusion"]))
    extra = ["--model", str(model)] if command == "select-model" else []
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", str(cfg), *extra, "--out", str(out)])
    _assert_one_line_error(result, "service_dist")
    assert not out.exists()


def test_non_finite_config_number_fails_before_writing(runner, tmp_path):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps({**README_CONFIG, "lambda": float("nan")}))   # a NaN token
    out = tmp_path / "o"
    result = runner.invoke(main, ["simulate", "--config", str(cfg), "--out", str(out)])
    _assert_one_line_error(result, "NonFinite: lambda = nan")
    assert not out.exists()


def _assert_refused_quietly(result, out, error):
    """Exit 1 with the one stderr line "Error: <error>", nothing on stdout, no
    output directory, and no warning: they run as errors."""
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", f"Error: {error}\n")
    assert not out.exists()


def _invoke_warnings_as_errors(runner, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return runner.invoke(main, args)


BIG_INT = "1" + "0" * 400   # a JSON integer literal that no float holds


@pytest.mark.parametrize("command, bad", [
    ("simulate", "config"), ("lower-bound", "config"), ("triage", "config"),
    ("select-model", "config"), ("select-model", "model")])
def test_json_integer_beyond_the_float_range_is_one_error_line(runner, tmp_path, command, bad):
    # once a raw OverflowError traceback from the loaders' float()
    # rho = 1 once lambda is 1, so no HeavyTrafficDeviation warning reaches stderr
    system = {**README_CONFIG, "service_rates": [1.0, 1.0]}
    doc, key = (TRIAGE_DOC, "Lambda") if command == "triage" else (system, "lambda")
    files = {"config": {**doc, key: "BIG"}, "model": [[1.0, 0.0], [0.0, "BIG"]]}
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for name, content in files.items():
        if name != bad:
            content = json.loads(json.dumps(content).replace('"BIG"', "1"))
        paths[name].write_text(json.dumps(content).replace('"BIG"', BIG_INT))
    args = [command, "--config", str(paths["config"])]
    if command == "select-model":
        args += ["--model", str(paths["model"])]
    out = tmp_path / "o"
    result = _invoke_warnings_as_errors(runner, [*args, "--out", str(out)])
    _assert_refused_quietly(result, out, f"{paths[bad]}: integer 1000000000... (401 characters) "
                                         "overflows the float range")


@pytest.mark.parametrize("label", [40, 10 ** 8, 2 ** 63 - 1])
@pytest.mark.parametrize("header, rest", [
    # estimate_confusion refuses; estimate_rates with confusion skipped; the
    # prevalence count alone
    ("true_class,predicted_class,service_time", (",1,1.0", ",2,1.0", ",1,1.0")),
    ("true_class,service_time", (",1.0",) * 3),
    ("true_class,score", (",0.5",) * 3)], ids=["confusion", "rates", "prevalence"])
def test_estimate_refuses_more_classes_than_rows(runner, tmp_path, label, header, rest):
    # once a K x K allocation: a MemoryError or OverflowError traceback, or a
    # line listing every class up to the label
    csv_path = tmp_path / "validation.csv"
    rows = [f"{k}{tail}" for k, tail in zip((1, 2, label), rest)]
    csv_path.write_text("\n".join([header, *rows]) + "\n")
    out = tmp_path / "est"
    result = _invoke_warnings_as_errors(runner, ["estimate", "--csv", str(csv_path),
                                                 "--out", str(out)])
    _assert_refused_quietly(result, out, f"no records for true class 3: the labels give {label} "
                                         "classes, more than the 3 rows")


@pytest.mark.parametrize("service, error", [
    # a subnormal mean: its reciprocal overflows, once printed as a numpy warning
    ("1e-320", "NonFinite: class 1 mu_hat = inf (overflows the float range)"),
    # a square past the float range: once an OverflowError traceback
    ("1e200", "NonFinite: class 1 alpha_v_hat = inf (overflows the float range)")])
def test_estimate_refuses_non_finite_rates_before_writing(runner, tmp_path, service, error):
    csv_path = tmp_path / "validation.csv"
    csv_path.write_text("true_class,predicted_class,service_time\n"
                        f"1,1,{service}\n2,2,1.0\n1,2,{service}\n")
    out = tmp_path / "est"
    result = _invoke_warnings_as_errors(runner, ["estimate", "--csv", str(csv_path),
                                                 "--out", str(out)])
    _assert_refused_quietly(result, out, error)


@pytest.mark.parametrize("command", ["lower-bound", "simulate"])
@pytest.mark.parametrize("key", ["arrival_dist", "service_dist"])
def test_overflowing_second_moment_is_one_error_line(tmp_path, command, key):
    # a lognormal sigma of 30 overflows E[X^2] = e^(s^2) / rate^2; run in a
    # fresh interpreter so that stderr shows any raw numpy warning
    cfg = tmp_path / "sigma30.json"
    cfg.write_text(json.dumps({**README_CONFIG, key: {"family": "lognormal", "sigma": 30}}))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", command, "--config", str(cfg),
                           "--paths", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"Error: NonFinite: {key} = {{'family': 'lognormal', 'sigma': 30.0}} "
        "(its second moment overflows)"]
    assert not out.exists()


MIXED_POWER = {**README_CONFIG, "costs": [{"coeff": 1.0, "power": 2.0},
                                          {"coeff": 10.0, "power": 3.0}]}
CUBE = "(its cube, a term of the workload variance rate, overflows)"
OVER = "(overflows the float range)"


@pytest.mark.parametrize("command, doc, error", [
    # lambda ** 3, or a Python float's lambda ** 2, leaves the float range
    ("lower-bound", {**MIXED_POWER, "lambda": 1e200}, f"NonFinite: lambda = 1e+200 {CUBE}"),
    ("lower-bound", {**MIXED_POWER, "lambda": 1e103}, f"NonFinite: lambda = 1e+103 {CUBE}"),
    ("triage", {**TRIAGE_DOC, "Lambda": 1e103}, f"NonFinite: Lambda = 1e+103 {CUBE}"),
    ("triage", {**TRIAGE_DOC, "Lambda": 1e160}, f"NonFinite: Lambda = 1e+160 {CUBE}"),
    # the default alpha_v = 2 / mu^2 is inf: it once priced every row as nan
    ("triage", {**TRIAGE_DOC, "mu": [1e-160, 200.0]},
     "NonFinite: alpha_v = [inf, 5e-05] (its exponential default overflows)"),
    # no law with mean 1/Lambda has E[U^2] < 1/Lambda^2
    ("triage", {**TRIAGE_DOC, "alpha_u": 1e-12},
     "alpha_u = 1e-12 is below its law's squared mean 1/Lambda^2 = 4e-10"),
    # a priced cost term past the float range once wrote inf into triage.csv
    ("triage", {**TRIAGE_DOC, "alpha_u": 1e300}, f"NonFinite: queueing = inf at z_fl=0.05 {OVER}"),
    ("triage", {**TRIAGE_DOC, "c_r": 1e308}, f"NonFinite: hiring = inf at z_fl=0.05 {OVER}"),
    ("triage", {**TRIAGE_DOC, "c_trp": 1e308}, f"NonFinite: filtering = inf at z_fl=0.05 {OVER}"),
    ("triage", {**TRIAGE_DOC, "delay_costs": [1e308, 1.0]},
     f"NonFinite: queueing = inf at z_fl=0.05 {OVER}"),
])
def test_out_of_range_moments_are_one_error_line(tmp_path, command, doc, error):
    # a fresh interpreter, so that stderr shows any raw traceback or warning
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", command, "--config", str(cfg),
                           "--paths", "4", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [f"Error: {error}"]
    assert not out.exists()


POWER_300 = {**README_CONFIG, "costs": [{"coeff": 1.0, "power": 300.0}] * 2}


def test_common_power_300_floor_is_written(tmp_path):
    # Newton on the common marginal level could not follow y^(1/299) and left
    # a residual; a common power splits the workload in closed form
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(POWER_300))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", "lower-bound", "--config",
                           str(cfg), "--paths", "8", "--steps", "100", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    warning, = proc.stderr.splitlines()
    assert warning.startswith("warning: HeavyTrafficDeviation: rho = 0.85")
    assert "jstar_mean = 1.056346e+119" in proc.stdout.splitlines()
    assert (out / "lower_bound.csv").exists()


@pytest.mark.parametrize("doc, error", [
    # per-path costs past the float range once wrote inf into lower_bound.csv
    ({**README_CONFIG, "costs": [{"coeff": 1e308, "power": 2.0}, {"coeff": 10.0, "power": 2.0}],
      "horizon": 100.0},
     f"NonFinite: jstar_mean = inf {OVER}"),
    # a common power of 300: the floor leaves the float range (the level
    # solve once stopped first, on a residual at workload 0.2855)
    ({**POWER_300, "horizon": 200.0}, f"NonFinite: jstar_mean = inf {OVER}"),
])
def test_overflowing_cost_floor_is_one_error_line(tmp_path, doc, error):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", "lower-bound", "--config",
                           str(cfg), "--paths", "20", "--steps", "100", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout == ""
    warning, last = proc.stderr.splitlines()
    assert warning.startswith("warning: HeavyTrafficDeviation: rho = 0.85")
    assert last.startswith(f"Error: {error}")
    assert not out.exists()


def test_overflowing_cost_floor_names_inf_stderr(runner, tmp_path):
    # a column holding inf once reported its stderr as the nan of inf - inf
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**README_CONFIG, "horizon": 100.0, "costs": [
        {"coeff": 1e308, "power": 2.0}, {"coeff": 10.0, "power": 2.0}]}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["lower-bound", "--config", str(cfg), "--paths", "20",
                                  "--steps", "100", "--out", str(out)])
    assert result.exit_code == 1 and not out.exists()
    assert result.output.splitlines()[-1] == "Error: " + "; ".join(
        f"NonFinite: {name} = inf {OVER}"
        for name in ("jstar_mean", "jstar_stderr", "jnaive_mean", "jnaive_stderr"))


HUGE_CUBIC = {**MIXED_POWER, "costs": [{"coeff": 1.0, "power": 2.0},
                                       {"coeff": 1e308, "power": 3.0}]}
HUGE = "NonFinite: costs[1] = {'coeff': 1e+308, 'power': 3.0}"


@pytest.mark.parametrize("args, error", [
    # cost 1's KKT slope overflows: kkt_solve refuses it before any Newton step,
    # so stderr is the config warning and this one error line, no numpy warning
    (["lower-bound", "--paths", "8", "--steps", "100"],
     f"{HUGE} (its marginal-cost slope coeff * (power - 1), times its largest posterior "
     "share, overflows)"),
    # an index value overflows: the index table refuses it where a queue first
    # reaches that length, so stderr is the config warning and this one error
    # line; the queue length is the first that overflows, not the class's job count
    (["simulate", "--policy", "pcmu", "--paths", "3"],
     f"{HUGE} (the pcmu index of class 0 overflows the float range at queue length 1)"),
    (["simulate", "--policy", "oracle", "--paths", "3"],
     f"{HUGE} (the oracle index of class 1 overflows the float range at queue length 1)"),
    (["simulate", "--policy", "naive", "--paths", "1"],
     f"{HUGE} (the naive index of class 1 overflows the float range at queue length 1)"),
    (["simulate", "--policy", "fcfs", "--paths", "3"], None),   # no index to overflow
], ids=["lower-bound", "simulate-pcmu", "simulate-oracle", "simulate-naive", "simulate-fcfs"])
def test_overflowing_cost_coefficient_is_one_error_line(tmp_path, args, error):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(HUGE_CUBIC))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", *args, "--config", str(cfg),
                           "--out", str(out)], env=env, capture_output=True, text=True)
    warning, *rest = proc.stderr.splitlines()
    assert warning.startswith("warning: HeavyTrafficDeviation: rho = 0.85")
    if error is None:
        assert proc.returncode == 0 and rest == [] and (out / "summary.csv").exists()
    else:
        assert proc.returncode == 1 and proc.stdout == ""
        assert rest == [f"Error: {error}"]
        assert not out.exists()


@pytest.mark.parametrize("doc", [
    {**MIXED_POWER, "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 1e200, "power": 3.0}]},
    {**README_CONFIG, "costs": [{"coeff": 1e308, "power": 2.0}, {"coeff": 10.0, "power": 2.0}]},
], ids=["mixed-1e200", "quadratic-1e308"])
def test_huge_but_finite_cost_floor_is_written(tmp_path, doc):
    # squaring per-path costs past 1e154 once overflowed the standard error
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", "lower-bound", "--config",
                           str(cfg), "--paths", "8", "--steps", "100", "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.startswith("warning: HeavyTrafficDeviation") and "Warning" not in proc.stderr
    table = {name: float(value) for name, value in _read_csv(out / "lower_bound.csv")[1:]}
    assert all(np.isfinite(v) for v in table.values())
    assert table["jstar_mean"] > 1e150 and table["jstar_stderr"] > 0.0


@pytest.mark.parametrize("spec", ["0.1:inf:3", "nan:0.4:3", "-inf:0.4:2"])
def test_non_finite_grid_end_is_one_error_line(tmp_path, triage_path, spec):
    out = tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "pqsched.cli", "triage", "--config",
                           str(triage_path),
                           "--zfl-grid", spec, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and "Warning" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: Invalid value: grid ends must be finite, got {spec!r}"]
    assert not out.exists()


def test_non_finite_triage_number_fails_before_writing(runner, tmp_path, triage_path):
    bad = tmp_path / "nan_triage.json"
    bad.write_text(json.dumps({**json.loads(triage_path.read_text()), "Lambda": float("nan")}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["triage", "--config", str(bad), "--out", str(out)])
    _assert_one_line_error(result, "NonFinite: Lambda = nan (must be finite)")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "lower-bound", "triage"])
def test_negative_seed_fails_before_writing(runner, tmp_path, config_path, triage_path, command):
    cfg = triage_path if command == "triage" else config_path
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", str(cfg), "--paths", "2", "--seed", "-1",
                                  "--out", str(out)])
    _assert_one_line_error(result, "seed -1 is outside [0, 2**128)")
    assert not out.exists()


@pytest.mark.parametrize("command, steps", [("lower-bound", -5), ("triage", -3)])
def test_negative_steps_fail_before_writing(runner, tmp_path, config_path, triage_path, command,
                                            steps):
    # np.linspace once refused the RBM grid with a raw ValueError traceback
    cfg = triage_path if command == "triage" else config_path
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", str(cfg), "--paths", "2", "--steps",
                                  str(steps), "--out", str(out)])
    _assert_one_line_error(result, "Error: need n_steps >= 100 for a usable Euler grid")
    assert not out.exists()


@pytest.mark.parametrize("command, paths, needle", [
    # a one-path floor once reported jstar_stderr = 0 and jnaive_stderr = 0
    ("lower-bound", 1, "--paths 1: lower-bound needs at least 2 paths for a standard error"),
    ("lower-bound", 0, "--paths 0: lower-bound needs at least 2 paths"),
    ("lower-bound", -2, "--paths -2: lower-bound needs at least 2 paths"),
    # these once named a library function the command does not call
    ("simulate", 0, "--paths 0: simulate needs at least 1 path"),
    ("simulate", -2, "--paths -2: simulate needs at least 1 path"),
])
def test_too_few_paths_fail_before_writing(runner, tmp_path, command, paths, needle):
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", str(cfg), "--paths", str(paths),
                                  "--out", str(out)])
    _assert_one_line_error(result, f"Error: {needle}")
    assert not out.exists()


def test_model_file_without_confusion(runner, tmp_path, config_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"name": "m"}')
    out = tmp_path / "o"
    result = runner.invoke(main, ["select-model", "--config", str(config_path),
                                  "--model", str(bad), "--out", str(out)])
    _assert_one_line_error(result, "confusion")
    assert not out.exists()


@pytest.mark.parametrize("confusion, needle", [
    # select-model names a candidate of the wrong K by its file's stem, not its path
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
     "Error: ShapeMismatch: config(2), candidate 'model'(3,3) disagree"),
    ([[0.9, 0.3], [0.2, 0.8]], "RowNotStochastic: row 0 sums to 1.2"),
    ([[1.5, -0.5], [0.2, 0.8]], "EntryOutOfRange"),
    ([[float("nan"), 1.0], [0.2, 0.8]], "EntryOutOfRange"),
])
def test_malformed_candidate_rejected(runner, tmp_path, confusion, needle):
    cfg, model = tmp_path / "system.json", tmp_path / "model.json"
    cfg.write_text(json.dumps(README_CONFIG))
    model.write_text(json.dumps(confusion))
    out = tmp_path / "o"
    result = runner.invoke(main, ["select-model", "--config", str(cfg),
                                  "--model", str(model), "--out", str(out)])
    _assert_one_line_error(result, needle if needle.startswith("Error:") else f"{model}: {needle}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "lower-bound"])
@pytest.mark.parametrize("field, value, shown", [
    ("prevalences", 0.5, "prevalences(), service_rates(2), costs(2), confusion(2)"),
    ("prevalences", [[0.15, 0.35], [0.15, 0.35]],
     "prevalences(2,2), service_rates(2), costs(2), confusion(2)"),
    ("service_rates", 2.0, "prevalences(2), service_rates(), costs(2), confusion(2)"),
    ("costs", [{"coeff": 1.0, "power": 2.0}],
     "prevalences(2), service_rates(2), costs(1), confusion(2)"),
])
def test_config_of_wrong_shape_is_one_error_line(runner, tmp_path, command, field, value, shown):
    # the first three once ended in a raw TypeError or ValueError
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({**README_CONFIG, field: value}))
    out = tmp_path / "o"
    result = runner.invoke(main, [command, "--config", str(cfg), "--paths", "2",
                                  "--out", str(out)])
    _assert_one_line_error(result, f"Error: ShapeMismatch: {shown} disagree")
    assert not out.exists()


@pytest.mark.parametrize("grid_size", [0, 1, -3])
def test_gaussian_logit_grid_of_fewer_than_two_points(runner, tmp_path, triage_path, grid_size):
    # grid_size 0 once ended in a raw IndexError
    doc = json.loads(triage_path.read_text())
    doc["curves"] = {**doc["curves"], "grid_size": grid_size}
    bad = tmp_path / "tiny_grid.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "o"
    result = runner.invoke(main, ["triage", "--config", str(bad), "--out", str(out)])
    _assert_one_line_error(result, "Error: curve grid needs at least two points")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("Lambda", "abc"), ("p", 0.5), ("curves", [1, 2])])
def test_triage_field_of_wrong_type(runner, tmp_path, triage_path, field, value):
    bad = tmp_path / "bad_triage.json"
    bad.write_text(json.dumps({**json.loads(triage_path.read_text()), field: value}))
    out = tmp_path / "o"
    result = runner.invoke(main, ["triage", "--config", str(bad), "--out", str(out)])
    _assert_one_line_error(result, "malformed triage config")
    assert not out.exists()


# ------------------------------------------------------- validation warnings

MIXED_CONFIG = {**README_CONFIG,
                "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 10.0, "power": 3.0}]}


@pytest.mark.parametrize("command, extra", [
    ("lower-bound", ["--paths", "8", "--steps", "100", "--seed", "4"]),
    ("simulate", ["--paths", "3", "--policy", "pcmu", "--seed", "4"]),
    ("select-model", ["--model", "MODEL"]),
])
def test_validation_warnings_in_manifest_and_stderr(runner, tmp_path, command, extra):
    # rho = 0.3/2 + 0.7/1 = 0.85, outside the heavy-traffic band; select-model
    # ranks quadratic costs only, so it reads the all-quadratic README system
    cfg = tmp_path / "mixed.json"
    cfg.write_text(json.dumps(MIXED_CONFIG if command != "select-model" else README_CONFIG))
    model = tmp_path / "model.json"
    model.write_text(json.dumps(README_CONFIG["confusion"]))
    extra = [str(model) if arg == "MODEL" else arg for arg in extra]
    outs = [tmp_path / "a", tmp_path / "b"]
    results = [runner.invoke(main, [command, "--config", str(cfg), *extra,
                                    "--out", str(out)]) for out in outs]
    for result, out in zip(results, outs):
        assert result.exit_code == 0, result.output
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: HeavyTrafficDeviation: rho = 0.85")
        assert "warning:" not in result.stdout
        assert _manifest(out)["warnings"] == [lines[0][len("warning: "):]]
    csvs = _csv_bytes(outs[0])
    assert csvs and csvs == _csv_bytes(outs[1])
    assert not any(b"warning" in data.lower() for data in csvs.values())


def test_heavy_traffic_config_has_no_warnings(runner, tmp_path, critical_config):
    cfg = tmp_path / "critical.json"
    save_config(critical_config, cfg)
    out = tmp_path / "lb"
    result = runner.invoke(main, ["lower-bound", "--config", str(cfg), "--paths", "8",
                                  "--steps", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert result.stderr == ""
    assert _manifest(out)["warnings"] == []


# ------------------------------------------------------- manifest timings

STAGES = {
    "simulate": {"load", "simulate", "write"},
    "lower-bound": {"load", "paths", "cost", "write"},
    "select-model": {"load", "models", "rank", "write"},
    "triage": {"load", "grid", "write"},
    "estimate": {"read", "confusion", "rates", "curves"},
}


def test_every_manifest_records_stage_timings(runner, tmp_path, config_path, triage_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps([[0.7, 0.3], [0.3, 0.7]]))
    argv = {
        "simulate": ["--config", str(config_path), "--paths", "3", "--policy", "pcmu"],
        "lower-bound": ["--config", str(config_path), "--paths", "8", "--steps", "100"],
        "select-model": ["--config", str(config_path), "--model", str(model)],
        "triage": ["--config", str(triage_path), "--zfl-grid", "0.2:0.4:3",
                   "--paths", "50", "--steps", "100"],
        "estimate": ["--csv", str(_validation_csv(tmp_path))],
    }
    assert set(argv) == set(main.commands) == set(STAGES)
    for command, args in argv.items():
        out = tmp_path / command
        result = runner.invoke(main, [command, *args, "--out", str(out)])
        assert result.exit_code == 0, result.output
        timings = _manifest(out)["timings_s"]
        assert set(timings) == STAGES[command]
        assert all(isinstance(t, float) and t >= 0.0 for t in timings.values())


# ------------------------------------------------- deferred scipy import

# the pqsched modules each command imports, beyond the cli's errors, model and policies
COMMAND_MODULES = {"simulate": {"cost", "engine"}, "lower-bound": {"httheory"},
                   "select-model": {"httheory"}, "triage": {"httheory", "triage"},
                   "estimate": {"httheory", "ingest", "triage"}}


@pytest.mark.parametrize("command, service_dist, loads_scipy", [
    ("simulate", "exponential", False),
    ("simulate", {"family": "lognormal", "sigma": 0.5}, True),
    ("lower-bound", "exponential", True),
    pytest.param("select-model", "exponential", False, id="select-model"),
    pytest.param("triage", "exponential", True, id="triage"),
    pytest.param("estimate", "exponential", False, id="estimate"),
])
def test_fresh_process_loads_scipy_at_first_use(runner, tmp_path, command, service_dist,
                                                loads_scipy):
    # scipy.special is imported inside the functions that draw normals, and
    # each command imports the pqsched modules it runs; a fresh process loads
    # only those, and writes the same bytes as this process, where everything
    # is loaded already
    importlib.import_module("scipy.special")
    cfg = tmp_path / "system.json"
    cfg.write_text(json.dumps({**README_CONFIG, "service_dist": service_dist}))
    model, triage = tmp_path / "q1.json", tmp_path / "triage.json"
    model.write_text(json.dumps({"name": "q1", "confusion": [[0.8, 0.2], [0.3, 0.7]]}))
    triage.write_text(json.dumps(TRIAGE_DOC))
    args = [command, *{
        "simulate": ["--config", str(cfg), "--seed", "4", "--paths", "3", "--policy", "pcmu"],
        "lower-bound": ["--config", str(cfg), "--seed", "4", "--paths", "8", "--steps", "100"],
        "select-model": ["--config", str(cfg), "--model", str(model)],
        "triage": ["--config", str(triage), "--zfl-grid", "0.2:0.4:3", "--seed", "4",
                   "--paths", "50", "--steps", "100"],
        "estimate": ["--csv", str(_validation_csv(tmp_path)), "--threshold", "0.5"],
    }[command]]
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    code = ("import sys; from pqsched.cli import main; "
            "main(sys.argv[1:], standalone_mode=False); print('scipy' in sys.modules); "
            "print(sorted(m for m in sys.modules if m.startswith('pqsched.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    env.pop("PQSCHED_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code, *args, "--out", str(fresh)],
                          env=env, check=True, capture_output=True, text=True)
    *_, scipy_loaded, modules = proc.stdout.splitlines()
    assert scipy_loaded == str(loads_scipy)
    assert modules == str(sorted(f"pqsched.{m}" for m in {"cli", "errors", "model", "policies"}
                                 | COMMAND_MODULES[command]))
    assert runner.invoke(main, [*args, "--out", str(here)]).exit_code == 0
    assert _csv_bytes(fresh) and _csv_bytes(fresh) == _csv_bytes(here)
