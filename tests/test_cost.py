import csv

import numpy as np
import pytest

from pqsched import (
    COMPLETED_ONLY,
    TRUNCATE_AT_HORIZON,
    ConfigError,
    CostFn,
    Curves,
    PathResult,
    compare_policies,
    paired_gap,
    path_cost,
    replicate,
    resolve_n_jobs,
    run_path,
    export_summary_csv,
    terminal_cost,
)
from conftest import make_two_class
from helpers import curve_at


def _job(arrival, true_class, predicted, service, completion=np.nan):
    """One job's row: arrival, true and predicted class, service, completion
    (NaN while open) and remaining work at the horizon."""
    remaining = service if np.isnan(completion) else 0.0
    return arrival, true_class, predicted, service, completion, remaining


def _fake_path(jobs, horizon=10.0, n_classes=2):
    grid = np.linspace(0.0, horizon, 21)
    curves = Curves(grid=grid,
                    queue_lengths=np.zeros((21, n_classes), dtype=np.int64),
                    workload=np.zeros(21),
                    composition=np.zeros((21, n_classes, n_classes), dtype=np.int64))
    # arrival_times, true_class, predicted_class, service, completion, remaining
    columns = [np.array(col) for col in zip(*jobs)] or [np.zeros(0)] * 6
    return PathResult(
        *columns, arrival_workloads=np.zeros(len(jobs)), curves=curves, seed=0,
        event_count=0, horizon=horizon, n_classes=n_classes, policy_kind="pcmu")


# --------------------------------------------------------------- charging

def test_single_completed_job_cost(two_class_config):
    # sojourn 3 under C(t) = (2/2) t^2 -> charge 9, booked at the arrival
    cfg = make_two_class(costs=(CostFn(2.0), CostFn(2.0)))
    path = _fake_path([_job(1.0, 0, 0, 1.0, completion=4.0)])
    curve = path_cost(path, cfg)
    assert curve_at(curve, 0.5) == 0.0
    assert curve_at(curve, 1.0) == pytest.approx(9.0)
    assert curve_at(curve, 10.0) == pytest.approx(9.0)
    assert terminal_cost(path, cfg) == pytest.approx(9.0)
    assert curve.charging_rule == TRUNCATE_AT_HORIZON


def test_misclassified_job_charged_by_true_class(two_class_config):
    # true class 1 mislabeled as 1st class still pays the class-2 rate (10)
    path = _fake_path([_job(1.0, 1, 0, 1.0, completion=3.0)])
    curve = path_cost(path, two_class_config)
    assert curve_at(curve, 10.0) == pytest.approx(10.0 / 2.0 * 4.0)   # (10/2) * 2^2


def test_truncate_vs_completed_rules(two_class_config):
    open_job = _job(4.0, 0, 0, 2.0)         # never completes
    path = _fake_path([open_job], horizon=10.0)
    trunc = terminal_cost(path, two_class_config, rule=TRUNCATE_AT_HORIZON)
    assert trunc == pytest.approx(0.5 * (10.0 - 4.0) ** 2)     # (1/2) * 6^2
    comp = terminal_cost(path, two_class_config, rule=COMPLETED_ONLY)
    assert comp == 0.0
    with pytest.raises(ConfigError):
        terminal_cost(path, two_class_config, rule="both")


def test_curve_monotone_and_right_continuous(two_class_config):
    jobs = [_job(1.0, 0, 0, 1.0, completion=2.0),
            _job(3.0, 1, 1, 1.0, completion=5.0)]
    path = _fake_path(jobs)
    curve = path_cost(path, two_class_config)
    assert curve.values[0] == 0.0
    assert np.all(np.diff(curve.values) >= 0.0)
    # step lands exactly at the second arrival: right-continuous evaluation
    before = curve_at(curve, 3.0 - 1e-9)
    at = curve_at(curve, 3.0)
    assert at > before
    assert curve_at(curve, 3.0 + 1e-9) == at
    # custom evaluation grid is honored
    grid = np.array([0.0, 2.0, 9.0])
    curve2 = path_cost(path, two_class_config, grid=grid)
    assert np.array_equal(curve2.grid, grid)
    assert curve2.values[1] == pytest.approx(curve_at(curve, 2.0))


def test_empty_path_zero_cost(two_class_config):
    path = _fake_path([])
    curve = path_cost(path, two_class_config)
    assert np.all(curve.values == 0.0)
    assert terminal_cost(path, two_class_config) == 0.0


# ------------------------------------------------------------ replication

def test_replicate_summary_statistics(critical_config):
    cfg = make_two_class(lam=20.0)
    s = replicate(cfg, "pcmu", n_paths=40, base_seed=0)
    assert s.n_paths == 40
    assert s.terminal_costs.shape == (40,)
    # stderr at the horizon is the sample standard error of terminal costs
    expect = np.std(s.terminal_costs, ddof=1) / np.sqrt(40)
    assert s.terminal_stderr == pytest.approx(expect, rel=1e-12)
    assert s.terminal_mean == pytest.approx(np.mean(s.terminal_costs), rel=1e-12)
    # default evaluation grid spans [0, horizon]
    assert s.grid[0] == 0.0 and s.grid[-1] == pytest.approx(cfg.horizon)
    assert np.all(np.diff(s.mean) >= -1e-12)


def test_replicate_pool_matches_serial(critical_config):
    # the resolved policy is pickled to the workers; seed-order aggregation
    # makes the summary independent of the pool
    serial = replicate(critical_config, "pcmu", n_paths=6, base_seed=3, n_jobs=1)
    pooled = replicate(critical_config, "pcmu", n_paths=6, base_seed=3, n_jobs=2)
    for field in ("grid", "mean", "stderr", "terminal_costs"):
        assert np.array_equal(getattr(serial, field), getattr(pooled, field))
    assert pooled.policy_kind == "pcmu"


def test_replicate_needs_two_paths(two_class_config):
    with pytest.raises(ConfigError):
        replicate(two_class_config, "pcmu", n_paths=1, base_seed=0)


def test_identity_confusion_gives_zero_paired_gap(identity_config):
    cfg = make_two_class(lam=20.0, confusion=((1.0, 0.0), (0.0, 1.0)))
    a = replicate(cfg, "oracle", n_paths=30, base_seed=5)
    b = replicate(cfg, "pcmu", n_paths=30, base_seed=5)
    assert np.array_equal(a.terminal_costs, b.terminal_costs)
    gap, se = paired_gap(a, b)
    assert gap == 0.0 and se == 0.0


def test_paired_gap_requires_shared_seed_schedule():
    cfg = make_two_class(lam=20.0)
    a = replicate(cfg, "oracle", n_paths=10, base_seed=0)
    b = replicate(cfg, "pcmu", n_paths=10, base_seed=1)
    with pytest.raises(ConfigError):
        paired_gap(a, b)
    c = replicate(cfg, "pcmu", n_paths=12, base_seed=0)
    with pytest.raises(ConfigError):
        paired_gap(a, c)


def test_stderr_scales_inverse_root_n():
    cfg = make_two_class(lam=20.0)
    small = replicate(cfg, "pcmu", n_paths=200, base_seed=0)
    big = replicate(cfg, "pcmu", n_paths=400, base_seed=0)
    ratio = small.terminal_stderr / big.terminal_stderr
    assert ratio == pytest.approx(np.sqrt(2.0), rel=0.2)


def test_compare_policies_ratio(critical_config):
    cfg = make_two_class(lam=20.0)
    out = compare_policies(cfg, ("oracle", "pcmu", "fcfs"), n_paths=25, base_seed=3)
    assert set(out) == {"oracle", "pcmu", "fcfs"}
    assert np.allclose(out["oracle"].ratio_to_oracle[1:], 1.0)
    mask = out["oracle"].mean > 0
    assert np.allclose(out["pcmu"].ratio_to_oracle[mask],
                       out["pcmu"].mean[mask] / out["oracle"].mean[mask])


def test_export_summary_csv(tmp_path):
    cfg = make_two_class(lam=20.0)
    out = compare_policies(cfg, ("oracle", "pcmu"), n_paths=10, base_seed=0)
    target = tmp_path / "summary.csv"
    export_summary_csv(out, target)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "t", "mean_cost", "stderr", "ratio_to_oracle"]
    assert len(rows) == 1 + 2 * len(out["oracle"].grid)
    body = rows[1:]
    assert {r[0] for r in body} == {"oracle", "pcmu"}
    for r in body:
        float(r[1]), float(r[2]), float(r[3])      # parse back cleanly
    # single-summary export leaves the oracle column blank
    solo = replicate(cfg, "pcmu", n_paths=5, base_seed=0)
    export_summary_csv([solo], tmp_path / "solo.csv")
    with open(tmp_path / "solo.csv", newline="") as fh:
        solo_rows = list(csv.reader(fh))
    assert all(r[4] == "" for r in solo_rows[1:])


def test_custom_eval_times(two_class_config):
    cfg = make_two_class(lam=20.0)
    times = [0.0, 0.25, 1.0]
    s = replicate(cfg, "pcmu", n_paths=5, base_seed=0, eval_times=times)
    assert np.array_equal(s.grid, times)
    assert s.mean.shape == (3,)


def test_eval_times_must_end_at_the_horizon():
    # terminal costs are J(horizon): a grid ending early would report J there
    cfg = make_two_class()
    for times in ([0.0, 0.5], [0.0, 1.0, 0.5, 1.0], [-0.5, 1.0], [0.0, 2.0], [], [[0.0, 1.0]]):
        with pytest.raises(ConfigError):
            replicate(cfg, "pcmu", n_paths=5, base_seed=0, eval_times=times)
        with pytest.raises(ConfigError):
            compare_policies(cfg, ("oracle", "pcmu"), n_paths=5, base_seed=0, eval_times=times)
    s = replicate(cfg, "pcmu", n_paths=5, base_seed=0, eval_times=[0.0, 0.5, 1.0])
    expect = [terminal_cost(run_path(cfg, "pcmu", seed=i), cfg) for i in range(5)]
    assert s.terminal_costs.tolist() == expect   # one J(T), bit for bit


# ---------------------------------------------------------------- workers

def test_resolve_n_jobs(monkeypatch):
    monkeypatch.delenv("PQSCHED_THREADS", raising=False)
    assert resolve_n_jobs() == 1
    assert resolve_n_jobs(4) == 4
    monkeypatch.setenv("PQSCHED_THREADS", "3")
    assert resolve_n_jobs() == 3
    assert resolve_n_jobs(2) == 2          # explicit argument wins
    monkeypatch.setenv("PQSCHED_THREADS", "many")
    with pytest.raises(ConfigError):
        resolve_n_jobs()
