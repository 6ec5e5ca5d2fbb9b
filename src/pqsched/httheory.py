"""Diffusion-limit machinery: reflected workload, optimal allocation, cost laws.

Near rho = 1 the scaled workload of any work-conserving discipline converges
to a reflected Brownian motion whose drift/variance depend only on the
arrival and service primitives -- not on the scheduling policy and not on the
classifier.  The instantaneous best a predicted-class scheduler can do with
workload w is the cheapest split of w across predicted classes:

    minimize  sum_l lambda~_l C~_l(x_l / rho~_l)
    s.t.      sum_l x_l = w,   x >= 0

whose stationarity conditions equalize mu~_l C~'_l(x_l / rho~_l) across
classes.  For quadratic C_k the optimum is linear in w and the expected
integrated cost collapses to coefficient * 1/2 * E int W(t)^2 dt; the same
coefficient machinery scores a confusion matrix before any simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import BracketFailureError, ConfigError, NonFiniteMomentError, NonQuadraticError
from .model import (MixtureCost, PredictedClassParams, SystemConfig, derive_predicted_params,
                    mixture_cost)

__all__ = [
    "Moments",
    "workload_variance_rate",
    "WorkloadPathSet",
    "bm_workload_paths",
    "Allocation",
    "kkt_solve",
    "two_class_xstar",
    "QuadraticCostCoefficients",
    "quadratic_coefficients",
    "JEstimate",
    "jstar",
    "jnaive",
    "relative_regret",
    "RankedModel",
    "rank_models",
]

KKT_TOL = 1e-10
_KKT_MAX_ITER = 200
# kkt_solve works through at most this many workloads at a time
_KKT_BLOCK = 2 ** 16
# WorkloadPathSet draws, reflects and reduces this many paths at a time
RBM_BLOCK_ROWS = 128
# uniform draws are clipped into the open unit interval before the normal
# inverse CDF so a measure-zero 0.0 draw cannot produce -inf
_U_EPS = 2.0 ** -53


# ---------------------------------------------------------------------------
# variance rate of the workload diffusion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Moments:
    """Second moments of the primitives: alpha_u = E[U^2] for one
    interarrival time, alpha_v[k] = E[V_k^2] for a class-k service time."""

    alpha_u: float
    alpha_v: np.ndarray

    @classmethod
    def for_config(cls, config: SystemConfig) -> "Moments":
        return cls(alpha_u=float(config.arrival_dist.second_moment(config.lam)),
                   alpha_v=config.service_dist.second_moment(config.service_rates))


def workload_variance_rate(config: SystemConfig, moments: Optional[Moments] = None) -> float:
    """Variance rate v of the limiting workload Brownian motion.

    With m = E[V] = sum_k p_k / mu_k, per-job work variance
    c_v = sum_k p_k alpha_v[k] - m^2 and interarrival variance
    c_u = alpha_u - 1/lambda^2,

        v = lambda * c_v + lambda^3 * c_u * m^2.

    M/M/1 sanity check: lambda = mu gives v = 2 / lambda.
    """
    if moments is None:
        moments = Moments.for_config(config)
    lam = config.lam
    p = config.prevalences
    alpha_v = np.asarray(moments.alpha_v, dtype=float)
    if alpha_v.shape != (config.n_classes,):
        raise ConfigError("alpha_v must have one entry per class")
    if not (np.isfinite(moments.alpha_u) and np.all(np.isfinite(alpha_v))):
        raise NonFiniteMomentError("second moments must be finite")
    mean_work = float(p @ (1.0 / config.service_rates))
    c_v = float(p @ alpha_v) - mean_work ** 2
    c_u = moments.alpha_u - 1.0 / lam ** 2
    if c_v < -1e-12 or c_u < -1e-12:
        raise ConfigError("moments imply negative variance; check alpha_u/alpha_v")
    v = lam * max(c_v, 0.0) + lam ** 3 * max(c_u, 0.0) * mean_work ** 2
    if not np.isfinite(v):
        raise NonFiniteMomentError("variance rate overflowed")
    return float(v)


# ---------------------------------------------------------------------------
# simulated RBM workload paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadPathSet:
    """Reflected workload paths W = phi(sqrt(v) B) from zero on an even grid
    from 0.  Only each path's left-Riemann integral of W^2 is kept
    (integral_sq, jstar and jnaive take O(RBM_BLOCK_ROWS x len(grid))
    memory); blocks() redraws the paths from the seed."""

    grid: np.ndarray
    n_paths: int
    variance_rate: float
    seed: int
    isq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 101:
            raise ConfigError("need n_steps >= 100 for a usable Euler grid")
        if not grid[-1] > 0 or not np.array_equal(grid, np.linspace(0.0, grid[-1], grid.size)):
            raise ConfigError("need an even grid from 0 to a horizon > 0")
        if self.n_paths < 1:
            raise ConfigError("need n_paths >= 1")
        if not self.variance_rate >= 0:
            raise ConfigError("need variance_rate >= 0")
        object.__setattr__(self, "grid", grid)
        dt = np.diff(grid)
        isq = np.concatenate([(w[:, :-1] ** 2) @ dt for w in self.blocks()])  # left endpoints
        isq.setflags(write=False)
        object.__setattr__(self, "isq", isq)

    def integral_sq(self) -> np.ndarray:
        """Left-endpoint Riemann sum of W(t)^2 over the grid, per path (read-only)."""
        return self.isq

    def blocks(self):
        """The paths RBM_BLOCK_ROWS rows at a time, as views of one reused buffer.
        Philox uniforms are drawn in row order, so the blocks stack to one matrix
        whatever their size.  A one-row remainder joins the block before it:
        numpy takes a one-row product by a dot kernel that rounds unlike gemv."""
        from scipy.special import ndtri  # here, so only RBM draws load scipy
        n, n_steps = self.n_paths, self.grid.size - 1
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        scale = np.sqrt(self.variance_rate * (self.grid[-1] / n_steps))
        path, scratch = np.empty((2, min(n, RBM_BLOCK_ROWS + 1), n_steps + 1))
        stops = [*range(RBM_BLOCK_ROWS, n - 1, RBM_BLOCK_ROWS), n]
        for start, stop in zip([0] + stops[:-1], stops):
            w, s = path[:stop - start], scratch[:stop - start]
            z = s.reshape(-1)[:w.size - len(w)].reshape(-1, n_steps)  # contiguous, for rng.random
            ndtri(np.clip(rng.random(out=z), _U_EPS, 1.0 - _U_EPS, out=z), out=z)
            w[:, 0] = 0.0
            np.cumsum(np.multiply(scale, z, out=w[:, 1:]), axis=1, out=w[:, 1:])
            # reflect: phi(x)(t) = x(t) - min(0, inf_{s<=t} x(s)); the running
            # minimum includes x(0) = 0, so it is <= 0 and is its own min(0, .)
            yield np.subtract(w, np.minimum.accumulate(w, axis=1, out=s), out=w)


def bm_workload_paths(variance_rate: float, n_steps: int, horizon: float,
                      n_paths: int, seed: int) -> WorkloadPathSet:
    """Driftless reflected Brownian paths W = phi(sqrt(v) B) from zero, drawn
    and reduced block by block; a (seed, shape) pair pins them exactly."""
    return WorkloadPathSet(grid=np.linspace(0.0, horizon, n_steps + 1), n_paths=int(n_paths),
                           variance_rate=float(variance_rate), seed=int(seed))


# ---------------------------------------------------------------------------
# instantaneous optimal workload allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Allocation:
    """Split x of total workload r across predicted classes, and its cost."""

    r: float | np.ndarray
    x: np.ndarray
    objective: float | np.ndarray


def kkt_solve(r, params: PredictedClassParams, costs) -> Allocation:
    """Workload split equalizing marginal value mu~_l C~'_l(x_l / rho~_l).

    Pivot on class 0: for trial x_0, every other class's share follows from
    inverting its marginal at the pivot's level (MixtureCost.prime_inv, with
    the shares at the bracket's hi end as upper bounds), and total share
    g(x_0) = x_0 + sum_{l>0} x_l(x_0) is strictly increasing.  Bisection on
    g(x_0) = r converges unconditionally on [0, r].

    r may be an array (x then gains a trailing K axis, objective is per entry);
    NaN, infinite or negative entries are a ConfigError.  The bisection runs
    on arrays, _KKT_BLOCK entries at a time; an entry freezes once its mid
    equals lo or hi or its residual is <= 1e-15 max(1, r), so no split
    depends on its batch.  params come from derive_predicted_params, so every
    predicted label is non-empty (ZeroColumnError otherwise), unlike the
    one-class limit of the quadratic coefficients.
    """
    r_arr = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r_arr)) and np.all(r_arr >= 0.0)):
        raise ConfigError("total workload must be finite and nonnegative")
    K = len(params.rho_tilde)
    mixes = [mixture_cost(l, params, costs) for l in range(K)]
    flat = r_arr.reshape(-1)
    x = np.zeros((K, flat.size))
    x[0] = flat  # the whole split when K == 1, and zero where r == 0
    for i in range(0, flat.size if K > 1 else 0, _KKT_BLOCK):
        rows = i + np.flatnonzero(flat[i:i + _KKT_BLOCK] > 0.0)
        x[:, rows] = _bisect_shares(flat[rows], params, mixes)
    objective = sum(params.lambda_tilde[l] * mixes[l](x[l] / params.rho_tilde[l])
                    for l in range(K))
    if r_arr.ndim == 0:
        return Allocation(r=float(r_arr), x=x[:, 0].copy(), objective=float(objective[0]))
    return Allocation(r=r_arr, x=x.T.reshape(r_arr.shape + (K,)),
                      objective=objective.reshape(r_arr.shape))


def _bisect_shares(r: np.ndarray, params: PredictedClassParams,
                   mixes: Sequence[MixtureCost]) -> np.ndarray:
    """Optimal splits, shape (K, len(r)), of a 1-D array of workloads r > 0."""
    K, rho, mu = len(mixes), params.rho_tilde, params.mu_tilde

    def shares(x0: np.ndarray, upper: np.ndarray):
        level = mu[0] * mixes[0].prime(x0 / rho[0])
        t = np.stack([mixes[l].prime_inv(level / mu[l], upper[l - 1]) for l in range(1, K)])
        return np.vstack([x0[None], rho[1:, None] * t]), t

    # g(r) = r + (nonnegative shares) >= r, so [0, r] always brackets the
    # root; bisect past the stated tolerance down to float resolution so the
    # objective is usable inside tight integrand comparisons
    best, t_hi = shares(r, np.full((K - 1, r.size), np.inf))
    best_res = np.abs(sum(best) - r)
    lo, hi, act = np.zeros(r.size), r.copy(), np.arange(r.size)
    for _ in range(_KKT_MAX_ITER):
        mid = 0.5 * (lo[act] + hi[act])
        moving = (mid != lo[act]) & (mid != hi[act])
        act, mid = act[moving], mid[moving]
        if act.size == 0:
            break
        xs, t = shares(mid, t_hi[:, act])
        g = sum(xs)
        res = np.abs(g - r[act])
        better = res < best_res[act]
        best[:, act[better]], best_res[act[better]] = xs[:, better], res[better]
        below = g < r[act]
        lo[act[below]], hi[act[~below]], t_hi[:, act[~below]] = mid[below], mid[~below], t[:, ~below]
        act = act[res > 1e-15 * np.maximum(1.0, r[act])]
    tol = KKT_TOL * np.maximum(1.0, r)
    if np.any(best_res > tol):
        i = int(np.argmax(best_res - tol))
        raise BracketFailureError(
            f"allocation bisection stalled at residual {best_res[i]} > {tol[i]}")
    return best


def two_class_xstar(r: float, confusion, config: SystemConfig) -> np.ndarray:
    """Closed-form split for two predicted classes with quadratic costs.

    The balance condition beta_1 x_1 = beta_2 x_2 on the stiffnesses of
    quadratic_coefficients, beta_l = sum_k lam p_k q_kl c_k / (sum_k lam p_k
    q_kl / mu_k)^2, gives x_1 = r (1/beta_1) / (1/beta_1 + 1/beta_2).  Under a
    perfect classifier and lam = 1 this reduces to beta_l = c_l mu_l^2 / p_l.
    An empty label has 1/beta = 0 and gets no work: the split is (0, r) or
    (r, 0).
    """
    if config.n_classes != 2:
        raise ConfigError("two_class_xstar needs exactly two classes")
    inv_beta = 1.0 / quadratic_coefficients(config, confusion).beta  # 0 on an empty label
    x1 = r * (inv_beta[0] / (inv_beta[0] + inv_beta[1]))
    return np.array([x1, r - x1])


# ---------------------------------------------------------------------------
# quadratic-cost coefficients and workload-based cost estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticCostCoefficients:
    """Per-class stiffness and the resulting integrated-cost multipliers.

    beta[l]       = mu~_l c~_l / rho~_l   (mixture-aware stiffness)
    beta_naive[l] = mu~_l c_l / rho~_l    (stiffness using the label's own cost)
    jstar_coeff   = 1 / sum_l 1/beta[l]   -- optimal split
    jnaive_coeff  = sum_l beta_l s_l^2 with s_l the naive split fractions
                    s_l = (1/beta_naive[l]) / sum_m 1/beta_naive[m]

    Either coefficient times 1/2 E int W(t)^2 dt is the expected integrated
    cost of the corresponding splitting rule under quadratic delay costs.

    Shapes: for one K x K confusion matrix beta and beta_naive are (K,) and
    the coefficients are scalars; for a stack of shape (..., K, K) they are
    (..., K) and (...).  A label that is never predicted has beta =
    beta_naive = inf (see stiffness_coefficients).
    """

    beta: np.ndarray
    beta_naive: np.ndarray
    jstar_coeff: float | np.ndarray
    jnaive_coeff: float | np.ndarray


def stiffness_coefficients(lam, p, mu, c, q) -> tuple:
    """(1/beta, 1/beta_naive, jstar_coeff, jnaive_coeff), shaped (..., K),
    (..., K), (...) and (...), for lam of shape () or (...), p (..., K), mu
    and quadratic cost coefficients c (K,), and confusion matrices q (..., K, K).

    With s_l = sum_k p_k q_kl / mu_k and m_l = sum_k p_k q_kl c_k = p~_l c~_l,
    1/beta_l = lam s_l^2 / m_l and 1/beta_naive_l = lam s_l^2 / (p~_l c_l).
    A label never predicted (p~_l = 0) takes the one-class limit: both are 0
    and it adds nothing to either coefficient.  kkt_solve, jstar on other than
    quadratic costs and PolicyRef instead need every label non-empty (ZeroColumnError).
    """
    lam = np.asarray(lam, dtype=float)
    mass = np.asarray(p, dtype=float)[..., :, None] * np.asarray(q, dtype=float)  # p_k q_kl
    m, p_tilde = (mass * c[:, None]).sum(axis=-2), mass.sum(axis=-2)
    s = (mass / mu[:, None]).sum(axis=-2)
    u = np.divide(s * s, m, out=np.zeros_like(m), where=m > 0)
    u_naive = np.divide(s * s, p_tilde * c, out=np.zeros_like(m), where=p_tilde > 0)
    inv_beta, inv_naive = lam[..., None] * u, lam[..., None] * u_naive
    shares = inv_naive / inv_naive.sum(axis=-1, keepdims=True)
    jnaive = np.divide(shares * shares, inv_beta, out=np.zeros_like(m), where=u > 0)
    return inv_beta, inv_naive, 1.0 / (lam * u.sum(axis=-1)), jnaive.sum(axis=-1)


def _confusions(q, k: int, what: str = "confusion") -> np.ndarray:
    """q, a ConfusionMatrix or array, as floats of shape (..., k, k), else a ConfigError."""
    q = np.asarray(getattr(q, "entries", q), dtype=float)
    if q.shape[-2:] != (k, k):
        raise ConfigError(f"{what} of shape {q.shape} does not fit a {k}-class config")
    return q


def quadratic_coefficients(config: SystemConfig, confusion=None) -> QuadraticCostCoefficients:
    """Coefficients of config under its own classifier, or under confusion:
    one K x K matrix, or a stack of shape (..., K, K) priced in one pass."""
    if not config.all_quadratic():
        raise NonQuadraticError("coefficient formulas require power-2 costs")
    q = _confusions(config.confusion if confusion is None else confusion, config.n_classes)
    inv_beta, inv_naive, jstar_coeff, jnaive_coeff = stiffness_coefficients(
        config.lam, config.prevalences, config.service_rates,
        np.array([fn.coeff for fn in config.costs]), q)
    with np.errstate(divide="ignore"):
        return QuadraticCostCoefficients(beta=1.0 / inv_beta, beta_naive=1.0 / inv_naive,
                                         jstar_coeff=jstar_coeff[()],
                                         jnaive_coeff=jnaive_coeff[()])


@dataclass(frozen=True)
class JEstimate:
    """Monte Carlo estimate of an integrated workload cost."""

    per_path: np.ndarray
    mean: float
    stderr: float


def _estimate(per_path: np.ndarray) -> JEstimate:
    n = len(per_path)
    stderr = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return JEstimate(per_path=per_path, mean=float(per_path.mean()), stderr=stderr)


def jstar(confusion, config: SystemConfig, w_paths: WorkloadPathSet) -> JEstimate:
    """Expected integrated cost of the optimal workload split along W paths:
    the quadratic closed form when every cost is quadratic, else kkt_solve at
    every grid point (any convex costs; every predicted label non-empty)."""
    if config.all_quadratic():
        coeff = quadratic_coefficients(config, confusion).jstar_coeff
        return _estimate(coeff * 0.5 * w_paths.integral_sq())
    cfg = config if confusion is None else config.with_confusion(confusion)
    params, dt = derive_predicted_params(cfg), np.diff(w_paths.grid)
    return _estimate(np.concatenate([kkt_solve(w[:, :-1], params, cfg.costs).objective @ dt
                                     for w in w_paths.blocks()]))  # left endpoints


def jnaive(confusion, config: SystemConfig, w_paths: WorkloadPathSet) -> JEstimate:
    """Integrated cost when workload is split by label-only stiffness but
    charged at the true mixture costs (quadratic only)."""
    coeff = quadratic_coefficients(config, confusion).jnaive_coeff
    return _estimate(coeff * 0.5 * w_paths.integral_sq())


def relative_regret(confusion, config: SystemConfig) -> float:
    """jstar coefficient under this classifier over the perfect-classifier
    coefficient.  >= 1, equal to 1 iff the classifier costs nothing; the W
    factor cancels, so the ratio needs no simulation."""
    num = quadratic_coefficients(config, confusion).jstar_coeff
    den = quadratic_coefficients(config, np.eye(config.n_classes)).jstar_coeff
    return float(num / den)


@dataclass(frozen=True)
class RankedModel:
    name: str
    relative_regret: float
    jstar_coeff: float
    jnaive_coeff: float


def rank_models(models: Sequence[tuple], config: SystemConfig) -> list:
    """Order candidate confusion matrices by scheduling regret (ascending).

    models is a sequence of (name, confusion) pairs, priced as one stack.
    Sorting is stable, so exact ties keep input order.
    """
    k = config.n_classes
    stack = np.array([_confusions(q, k, f"candidate {name!r}") for name, q in models]
                     or np.empty((0, k, k)))
    coeffs = quadratic_coefficients(config, stack)
    regret = coeffs.jstar_coeff / quadratic_coefficients(config, np.eye(k)).jstar_coeff
    return [RankedModel(str(models[i][0]), float(regret[i]), float(coeffs.jstar_coeff[i]),
                        float(coeffs.jnaive_coeff[i]))
            for i in np.argsort(regret, kind="stable")]
