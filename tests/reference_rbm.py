"""Reference RBM generator: the oracle the row-block generator is checked against.

This is the dense `bm_workload_paths` pqsched used to ship: it draws every
uniform at once into an n_paths x n_steps matrix, takes the normals, the
increments, the path, its running minimum and the reflection as whole
matrices, and reduces the left-Riemann integral of W^2 with one product.
`WorkloadPathSet` must reproduce `values` and `integral_sq` bit for bit.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from pqsched.errors import ConfigError

_U_EPS = 2.0 ** -53


def reflect_matrix(x: np.ndarray) -> np.ndarray:
    """phi(x)(t) = x(t) - min(0, inf_{s<=t} x(s)) along each row of x: the
    minimal nonnegative version of the path, pushed up only when it would go
    negative."""
    running_min = np.minimum.accumulate(x, axis=1)
    return x - np.minimum(0.0, running_min)


def one_thread_product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x as gemv rounds it on one thread, whatever the thread count: the
    rows of a in groups of 4, each its own product, with the 1-3 leftover
    rows joined to the last group.  One-thread gemv reduces rows in groups
    of 4 and the leftover rows by another kernel, so these are its bits.  A
    large product of the whole matrix is split across BLAS threads at rows
    that need not be multiples of 4, and a row next to a split rounds
    differently: at 1,001 paths x 1,000 steps, a two-thread `a @ x` moves
    the last path's integral by an ulp."""
    stops = [*range(4, len(a) - 3, 4), len(a)]
    return np.concatenate([a[start:stop] @ x for start, stop in zip([0] + stops[:-1], stops)])


@dataclass(frozen=True)
class DensePaths:
    grid: np.ndarray
    values: np.ndarray  # (n_paths, len(grid))
    variance_rate: float
    seed: int

    def integral_sq(self) -> np.ndarray:
        """Left-endpoint Riemann sum of W(t)^2 over the grid, per path."""
        dt = np.diff(self.grid)
        return (self.values[:, :-1] ** 2) @ dt


def bm_workload_paths(variance_rate: float, n_steps: int, horizon: float,
                      n_paths: int, seed: int) -> DensePaths:
    """Driftless reflected Brownian paths W = phi(sqrt(v) B) from zero."""
    if n_steps < 100:
        raise ConfigError("need n_steps >= 100 for a usable Euler grid")
    if n_paths < 1:
        raise ConfigError("need n_paths >= 1")
    if horizon <= 0 or variance_rate < 0:
        raise ConfigError("need horizon > 0 and variance_rate >= 0")
    rng = np.random.Generator(np.random.Philox(key=seed))
    dt = horizon / n_steps
    u = rng.random((n_paths, n_steps))
    z = ndtri(np.clip(u, _U_EPS, 1.0 - _U_EPS))
    increments = np.sqrt(variance_rate * dt) * z
    x = np.empty((n_paths, n_steps + 1))
    x[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=x[:, 1:])
    grid = np.linspace(0.0, horizon, n_steps + 1)
    return DensePaths(grid=grid, values=reflect_matrix(x),
                      variance_rate=float(variance_rate), seed=int(seed))
