"""Reference KKT workload split: the oracle the array solver is checked against.

This is the scalar `kkt_solve` pqsched used to ship: one workload r at a time,
a Python bisection on the pivot share, and, for a mixture of unequal powers, a
`scipy.optimize.brentq` root find for each inverse marginal cost
(`prime_inv`, formerly `MixtureCost.prime_inv`).  Both are copied unchanged
except that the solver calls the module-level `prime_inv`.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from pqsched import Allocation, BracketFailureError, ConfigError
from pqsched.model import MixtureCost, PredictedClassParams

KKT_TOL = 1e-10
_KKT_MAX_ITER = 200


def prime_inv(self, y):
    """MixtureCost.prime_inv as it was, with `self` the mixture."""
    if self.common_power is not None:
        return np.power(np.asarray(y, dtype=float) / self.coeff, 1.0 / (self.common_power - 1.0))
    y = float(y)
    if y <= 0.0:
        return 0.0
    hi = 1.0
    while self.prime(hi) < y:
        hi *= 2.0
        if hi > 1e30:  # pragma: no cover - pathological input
            raise ConfigError("marginal-cost inverse failed to bracket")
    return float(brentq(lambda t: self.prime(t) - y, 0.0, hi, xtol=1e-14, rtol=1e-14))


def _allocation_objective(x: np.ndarray, params: PredictedClassParams,
                          mixes: Sequence[MixtureCost]) -> float:
    total = 0.0
    for l, mix in enumerate(mixes):
        total += params.lambda_tilde[l] * mix(x[l] / params.rho_tilde[l])
    return float(total)


def kkt_solve(r: float, params: PredictedClassParams, costs) -> Allocation:
    """Workload split equalizing marginal value mu~_l C~'_l(x_l / rho~_l).

    Pivot on class 0: for trial x_0, every other class's share follows from
    inverting its marginal at the pivot's level, and total share
    g(x_0) = x_0 + sum_{l>0} x_l(x_0) is strictly increasing.  Bisection on
    g(x_0) = r converges unconditionally on [0, r].
    """
    if r < 0:
        raise ConfigError("total workload must be nonnegative")
    K = len(params.rho_tilde)
    if r == 0.0:
        return Allocation(r=0.0, x=np.zeros(K), objective=0.0)
    mixes = [MixtureCost(params.mix_weights[:, l], costs) for l in range(K)]
    if K == 1:
        x = np.array([r], dtype=float)
        return Allocation(r=r, x=x, objective=_allocation_objective(x, params, mixes))

    rho = params.rho_tilde
    mu = params.mu_tilde

    def shares(x0: float) -> np.ndarray:
        level = mu[0] * mixes[0].prime(x0 / rho[0])
        x = np.empty(K)
        x[0] = x0
        for l in range(1, K):
            x[l] = rho[l] * prime_inv(mixes[l], level / mu[l])
        return x

    tol = KKT_TOL * max(1.0, r)
    lo, hi = 0.0, r
    g_hi = float(shares(hi).sum())
    if g_hi < r - tol:
        raise BracketFailureError(
            f"allocation bracket failed: g({r}) = {g_hi} < r")
    # bisect past the stated tolerance down to float resolution so the
    # objective is usable inside tight integrand comparisons
    best_x, best_res = shares(hi), abs(g_hi - r)
    for _ in range(_KKT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        x = shares(mid)
        g = float(x.sum())
        res = abs(g - r)
        if res < best_res:
            best_x, best_res = x, res
        if res <= 1e-15 * max(1.0, r):
            break
        if g < r:
            lo = mid
        else:
            hi = mid
    if best_res > tol:
        raise BracketFailureError(
            f"allocation bisection stalled at residual {best_res} > {tol}")
    return Allocation(r=r, x=best_x,
                      objective=_allocation_objective(best_x, params, mixes))
