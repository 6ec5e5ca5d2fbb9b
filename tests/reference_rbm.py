"""Reference RBM generator: the oracle the row-block generator is checked against.

This is the dense `bm_workload_paths` pqsched used to ship: it draws every
uniform at once into an n_paths x n_steps matrix, takes the normals, the
increments, the path, its running minimum and the reflection as whole
matrices.  It takes each path's left-Riemann integral of W^2 as its row's
sum times the even step (`row_integrals`), and `WorkloadPathSet` must
reproduce `values` and `integral_sq` bit for bit.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pqsched.errors import ConfigError
from pqsched.model import ndtri

_U_EPS = 2.0 ** -53


def row_integrals(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per row of values (one value per left grid point), its left-endpoint
    Riemann sum over the even grid: the row's sum times T / n_steps."""
    return values.sum(axis=1) * (grid[-1] / (grid.size - 1))


def reflect_matrix(x: np.ndarray) -> np.ndarray:
    """phi(x)(t) = x(t) - min(0, inf_{s<=t} x(s)) along each row of x: the
    minimal nonnegative version of the path, pushed up only when it would go
    negative."""
    running_min = np.minimum.accumulate(x, axis=1)
    return x - np.minimum(0.0, running_min)


@dataclass(frozen=True)
class DensePaths:
    grid: np.ndarray
    values: np.ndarray  # (n_paths, len(grid))
    variance_rate: float
    seed: int

    def integral_sq(self) -> np.ndarray:
        """Left-endpoint Riemann sum of W(t)^2 over the grid, per path: each
        row's sum times the even step."""
        return row_integrals(self.grid, self.values[:, :-1] ** 2)


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
