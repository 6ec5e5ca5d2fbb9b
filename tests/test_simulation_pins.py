"""Pinned simulation bits: `compare_policies` summaries and `run_path` columns
and curves equal values recorded in tests/simulation_bits.json, exactly.

Reshaping the two simulation entries must not move a bit.  NaN (an oracle
ratio where the oracle's mean cost is 0) equals NaN.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from pqsched import (
    COMPLETED_ONLY,
    TRUNCATE_AT_HORIZON,
    ConfusionMatrix,
    CostFn,
    RateSchedule,
    SystemConfig,
    compare_policies,
    run_path,
)

from conftest import make_two_class

BITS = json.loads((Path(__file__).parent / "simulation_bits.json").read_text())
KINDS = ["oracle", "pcmu", "naive", "fcfs"]
SUMMARY_FIELDS = ("mean", "stderr", "terminal_costs", "event_counts", "open_jobs",
                  "open_costs", "ratio_to_oracle")
PATH_FIELDS = ("arrival_times", "true_class", "predicted_class", "service", "completion",
               "remaining", "arrival_workloads", "event_count")
CURVE_FIELDS = ("grid", "queue_lengths", "workload", "composition")


def _readme_config():
    return SystemConfig(lam=1.0, prevalences=(0.3, 0.7), service_rates=(2.0, 1.0),
                        costs=(CostFn(1.0), CostFn(10.0)),
                        confusion=ConfusionMatrix([[0.9, 0.1], [0.2, 0.8]]), horizon=1.0)


def _critical_config():
    # rho = 1 at T = 10: about 1,000 arrivals a path
    return make_two_class(horizon=10.0, lam=100.0, prevalences=(0.5, 0.5),
                          service_rates=(150.0, 75.0), costs=(CostFn(1.0), CostFn(4.0)))


def _same(got, want) -> bool:
    return np.array_equal(np.asarray(got, dtype=float), np.asarray(want, dtype=float),
                          equal_nan=True)


@pytest.mark.parametrize("rule", [TRUNCATE_AT_HORIZON, COMPLETED_ONLY])
@pytest.mark.parametrize("name, config, n_paths", [("readme", _readme_config, 8),
                                                   ("critical", _critical_config, 3)])
def test_compare_policies_bits_are_pinned(name, config, n_paths, rule):
    cfg = config()
    t = cfg.horizon
    summaries = compare_policies(cfg, KINDS, n_paths, 0, rule,
                                 eval_times=[0.0, t / 4, t / 2, t])
    want = BITS["compare"][f"{name}/{rule}"]
    assert list(summaries) == KINDS
    for kind, s in summaries.items():
        for field in SUMMARY_FIELDS:
            assert _same(getattr(s, field), want[kind][field]), (kind, field)


@pytest.mark.parametrize("schedule", ["plain", "service_schedule"])
@pytest.mark.parametrize("kind", KINDS)
def test_run_path_bits_are_pinned(kind, schedule):
    service_schedule = RateSchedule.sinusoidal(0.5, 1.0) if schedule != "plain" else None
    path = run_path(make_two_class(horizon=12.0), kind, 0, sampling_grid=7,
                    service_schedule=service_schedule)
    want = BITS["path"][f"{schedule}/{kind}"]
    for field in PATH_FIELDS:
        assert _same(getattr(path, field), want[field]), field
    for field in CURVE_FIELDS:
        assert _same(getattr(path.curves, field), want[field]), field
    assert path.policy_kind == kind and path.seed == 0
