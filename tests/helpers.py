"""Shared test utilities (no pytest imports here)."""

from dataclasses import dataclass

import numpy as np

from pqsched import ConfusionMatrix, CostFn, SystemConfig, WorkloadPathSet


def exact_int_w2(path) -> float:
    """Exact time integral of the squared workload along one simulated path.

    Between consecutive arrivals the workload drains linearly at unit rate,
    so each segment contributes a closed-form cubic.  Uses the per-arrival
    workload snapshots recorded by the engine; independent of the sampling
    grid resolution.
    """
    t = np.asarray(path.arrival_times, dtype=float)
    if t.size == 0:
        return 0.0
    w = np.asarray(path.arrival_workloads, dtype=float)
    dt = np.diff(np.append(t, path.horizon))
    busy = np.minimum(dt, w)
    return float(((w ** 3 - (w - busy) ** 3) / 3.0).sum())


def workload_at_horizon(path) -> float:
    """Workload W(T) implied by the last arrival snapshot."""
    t = np.asarray(path.arrival_times, dtype=float)
    if t.size == 0:
        return 0.0
    w = float(path.arrival_workloads[-1])
    return max(w - (path.horizon - float(t[-1])), 0.0)


def reviewer_system_config(params, config, horizon: float = 1.0):
    """A reviewer's two-class SystemConfig at scalar thresholds: arrival rate
    lam_r, the passing mix, the triage service rates and delay costs, and the
    threshold rule's confusion matrix."""
    return SystemConfig(
        lam=params.lam_r,
        prevalences=params.p_mix,
        service_rates=np.asarray(config.mu, dtype=float),
        costs=(CostFn(config.delay_costs[0]), CostFn(config.delay_costs[1])),
        confusion=ConfusionMatrix(params.q),
        horizon=horizon,
    )


def curve_at(curve, t: float) -> float:
    """Right-continuous step evaluation of a CostCurve at time t."""
    i = int(np.searchsorted(curve.grid, t, side="right")) - 1
    return float(curve.values[max(i, 0)])


@dataclass(frozen=True)
class GivenPaths(WorkloadPathSet):
    """A WorkloadPathSet over given rows (one path each) instead of RBM draws:
    blocks() yields the matrix as one block, which the set reduces exactly as
    it reduces drawn blocks."""

    matrix: np.ndarray = None

    def blocks(self):
        yield self.matrix


def given_paths(grid, values, variance_rate: float = 1.0, seed: int = 0) -> GivenPaths:
    values = np.asarray(values, dtype=float)
    return GivenPaths(grid=np.asarray(grid, dtype=float), n_paths=len(values),
                      variance_rate=variance_rate, seed=seed, matrix=values)
