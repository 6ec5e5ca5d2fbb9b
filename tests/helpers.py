"""Shared test utilities (no pytest imports here)."""

from dataclasses import dataclass

import numpy as np

from pqsched import (ConfusionMatrix, CostFn, SystemConfig, WorkloadPathSet,
                     derive_predicted_params, kkt_solve)


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


def ten_class_config() -> SystemConfig:
    """Acceptance criterion 1's system: five content groups, each split into a
    toxic and a non-toxic class; the classifier confuses only within a group
    (block-diagonal 2x2).  lam = 100, T = 1, quadratic costs."""
    lam_tox = [4.2, 2.9, 3.4, 5.0, 2.7]
    lam_non = [12.4, 6.1, 22.1, 33.4, 7.8]
    mu_tox = [100.0, 30.0, 110.0, 25.0, 15.0]
    mu_non = [150.0] * 5
    c_tox = [10.0, 22.0, 12.0, 20.0, 25.0]
    c_non = [1.0] * 5
    acc_tox = [0.598, 0.657, 0.688, 0.670, 0.547]
    acc_non = [0.882, 0.860, 0.959, 0.960, 0.903]
    p, mu, c = [], [], []
    Q = np.zeros((10, 10))
    for g in range(5):
        p += [lam_tox[g] / 100.0, lam_non[g] / 100.0]
        mu += [mu_tox[g], mu_non[g]]
        c += [c_tox[g], c_non[g]]
        i = 2 * g
        Q[i, i], Q[i, i + 1] = acc_tox[g], 1.0 - acc_tox[g]
        Q[i + 1, i], Q[i + 1, i + 1] = 1.0 - acc_non[g], acc_non[g]
    return SystemConfig(lam=100.0, prevalences=p, service_rates=mu,
                        costs=tuple(CostFn(x) for x in c),
                        confusion=ConfusionMatrix(Q), horizon=1.0)


def stack(w: WorkloadPathSet) -> np.ndarray:
    """Every path of w as one (n_paths, len(grid)) matrix.  blocks() yields
    views of one reused buffer, so each block is copied before the next."""
    return np.concatenate([block.copy() for block in w.blocks()])


def kkt_per_path(config: SystemConfig, w: WorkloadPathSet, confusion=None) -> np.ndarray:
    """Per path of w, the left-Riemann integral of the KKT split's cost:
    kkt_solve at every grid point, block by block, whatever the cost powers."""
    cfg = config if confusion is None else config.with_confusion(confusion)
    params, dt = derive_predicted_params(cfg), np.diff(w.grid)
    return np.concatenate([kkt_solve(b[:, :-1], params, cfg.costs).objective @ dt
                           for b in w.blocks()])


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
