"""Reference KKT workload splits: the oracles the array solver is checked against.

`kkt_solve` is the scalar solver pqsched used to ship: one workload r at a
time, a Python bisection on the pivot share, and, for a mixture of unequal
powers, a `scipy.optimize.brentq` root find for each inverse marginal cost
(`prime_inv`, formerly `MixtureCost.prime_inv`).  Both are copied unchanged
except that the solver calls the module-level `prime_inv`, and that both
were made to work relative to r below r = 1 (see their docstrings).

`level_shares` is the array solver that came next, for costs without one
common power: a Newton on the common marginal level y (`newton`, formerly
`model._newton`) whose every step inverts each label's marginal cost with
another Newton (`newton_prime_inv`, formerly `MixtureCost.prime_inv`, and
`prime2`, formerly `MixtureCost.prime2`), copied unchanged.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from pqsched import Allocation, BracketFailureError, ConfigError, derive_predicted_params
from pqsched.model import PredictedClassParams
from reference_mixture import MixtureCost

KKT_TOL = 1e-10
# enough halvings to take [0, r] to float resolution from any r > 0 (it was
# 200; the ten-class mixed config at r = 1e-150 takes 300)
_KKT_MAX_ITER = 1100


def prime_inv(self, y, scale=1.0):
    """MixtureCost.prime_inv as it was, with `self` the mixture, but at a
    scale: the bracket search starts at hi = scale, brentq's absolute xtol
    is 1e-14 scale (both were at scale 1), and its residual is relative,
    C~'(t) / y - 1 (it was C~'(t) - y, whose products underflow inside
    brentq at r = 1e-150).  So a root far below 1 is found to a relative
    1e-14 within brentq's 100 iterations."""
    if self.common_power is not None:
        return np.power(np.asarray(y, dtype=float) / self.coeff, 1.0 / (self.common_power - 1.0))
    y = float(y)
    if y <= 0.0:
        return 0.0
    hi = scale
    while self.prime(hi) < y:
        hi *= 2.0
        if hi > 1e30:  # pragma: no cover - pathological input
            raise ConfigError("marginal-cost inverse failed to bracket")
    return float(brentq(lambda t: self.prime(t) / y - 1.0, 0.0, hi, xtol=1e-14 * scale, rtol=1e-14))


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
    g(x_0) = r converges unconditionally on [0, r].  Below r = 1 its
    tolerances are relative to r (they were absolute): prime_inv runs at
    scale r and the bisection stops at KKT_TOL r, so small workloads are
    split as finely as large ones.  From r = 1 up its tolerances are as
    they were.
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
            x[l] = rho[l] * prime_inv(mixes[l], level / mu[l], min(1.0, r))
        return x

    tol = KKT_TOL * r  # KKT_TOL max(1, r) as was, from r = 1 up
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
        if res <= 1e-15 * r:
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


# ---------------------------------------------------------------------------
# the nested level / inverse Newton
# ---------------------------------------------------------------------------

# Newton stops after a step of at most this fraction of t, which leaves an
# error of order its square, below an ulp
_NEWTON_RTOL, _NEWTON_MAX_ITER = 2.0 ** -27, 100


def newton(f_df, hi: np.ndarray) -> np.ndarray:
    """Roots in [0, hi] of increasing f with f(0) <= 0 <= f(hi), elementwise,
    where f_df(t, i) gives f and f' at t for the entries i of hi: Newton from
    hi, a step leaving the bracket known so far replaced by its midpoint."""
    out = np.empty(hi.size)
    i, lo, t = np.arange(hi.size), np.zeros(hi.size), hi
    for _ in range(_NEWTON_MAX_ITER):
        f, df = f_df(t, i)
        hi, lo = np.where(f > 0.0, t, hi), np.where(f < 0.0, t, lo)
        step = t - f / df
        newton = (step >= lo) & (step <= hi)
        step = np.where(newton, step, 0.5 * (lo + hi))
        out[i] = step
        live = np.abs(step - t) > np.where(newton, _NEWTON_RTOL * t, 0.0)
        i, lo, hi, t = i[live], lo[live], hi[live], step[live]
        if i.size == 0:
            break
    return out


def prime2(mix: MixtureCost, t):
    """C~''(t) of the mixture."""
    return sum(w * c.coeff * (c.power - 1.0) * np.power(t, c.power - 2.0)
               for c, w in zip(mix.costs, mix.weights) if w > 0)


def newton_prime_inv(mix: MixtureCost, y):
    """t with C~'(t) = y, elementwise: (y / c~)^(1/(p-1)) for a common power,
    else newton on an array of levels y from min_k (y / (w_k c_k))^(1/(p_k-1)),
    above the root since each term alone reaches y."""
    y = np.asarray(y, dtype=float)
    if mix.common_power is not None:
        return np.power(y / mix.coeff, 1.0 / (mix.common_power - 1.0))
    # C~'(t) = t * sum_k a_k t^(q_k - 1) and C~''(t) = sum_k a_k q_k t^(q_k - 1)
    terms = [(w * c.coeff, c.power - 1.0) for c, w in zip(mix.costs, mix.weights) if w > 0]
    out = np.zeros(y.size)
    idx = np.flatnonzero(y.reshape(-1) > 0.0)
    level = y.reshape(-1)[idx]

    def f_df(t, i):
        u = [np.power(t, q - 1.0) for _, q in terms]
        return (t * sum(a * uk for (a, _), uk in zip(terms, u)) - level[i],
                sum(a * q * uk for (a, q), uk in zip(terms, u)))

    out[idx] = newton(f_df, np.min([np.power(level / a, 1.0 / q) for a, q in terms], axis=0))
    return out.reshape(y.shape)[()]


def level_shares(r: np.ndarray, config) -> np.ndarray:
    """Optimal splits, shape (K, len(r)), of a 1-D array of workloads r > 0:
    x_l(y) = rho~_l prime_inv_l(y / mu~_l) at a common level y, and newton on
    g(y) = sum_l x_l(y) = r from y_hi = min_l mu~_l C~'_l(r / rho~_l), where one
    class alone takes all of r, with slope sum_l rho~_l / (mu~_l C~''_l)."""
    params = derive_predicted_params(config)
    rho, mu = params.rho_tilde, params.mu_tilde
    mixes = [MixtureCost(params.mix_weights[:, l], config.costs) for l in range(len(rho))]

    def loads(y):  # t_l = x_l / rho~_l at level y
        return [newton_prime_inv(mix, y / m) for mix, m in zip(mixes, mu)]

    def f_df(y, i):
        t = loads(y)
        return (sum(p * tl for p, tl in zip(rho, t)) - r[i],
                sum(p / (m * prime2(mix, tl)) for p, m, mix, tl in zip(rho, mu, mixes, t)))

    y_hi = np.min([m * mix.prime(r / p) for p, m, mix in zip(rho, mu, mixes)], axis=0)
    return np.stack([p * tl for p, tl in zip(rho, loads(newton(f_df, y_hi)))])
