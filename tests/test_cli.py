import csv
import json

import numpy as np
import pytest
from click.testing import CliRunner

import pqsched
from pqsched import (
    quadratic_coefficients,
    relative_regret,
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
        relative_regret(cfg.confusion, cfg), rel=1e-12)
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
    assert man["rbm_block_rows"] == pqsched.httheory.RBM_BLOCK_ROWS == 128
    # the lower-bound table itself carries neither
    names = [row[0] for row in _read_csv(out / "lower_bound.csv")[1:]]
    assert "expected_integral_sq" not in names and "integral_sq_mean" not in names


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

@pytest.fixture
def triage_path(tmp_path):
    doc = {
        "Lambda": 50000.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
        "curves": {"kind": "gaussian_logit", "loc": [-1.0, -3.0],
                   "scale": [1.0, 1.0]},
        "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0,
        "c_tp": -3.0, "c_tn": -3.0, "c_r": 800.0, "delay_costs": [15.0, 1.0],
    }
    target = tmp_path / "triage.json"
    target.write_text(json.dumps(doc))
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


def test_model_file_without_confusion(runner, tmp_path, config_path):
    bad = tmp_path / "model.json"
    bad.write_text('{"name": "m"}')
    out = tmp_path / "o"
    result = runner.invoke(main, ["select-model", "--config", str(config_path),
                                  "--model", str(bad), "--out", str(out)])
    _assert_one_line_error(result, "confusion")
    assert not out.exists()


@pytest.mark.parametrize("confusion, needle", [
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]],
     "ShapeMismatch: confusion is 3 x 3, config has 2 classes"),
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
    _assert_one_line_error(result, f"{model}: {needle}")
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
