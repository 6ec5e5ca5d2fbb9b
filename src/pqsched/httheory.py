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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, ConfigError, NonFiniteMomentError, NonQuadraticError
from .model import (PredictedClassParams, SystemConfig, _check_finite, _check_seed, _mean_stderr,
                    cost_terms, derive_predicted_params, non_finite, shape_mismatch)

__all__ = [
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
    "rank_models",
]

KKT_TOL = 1e-10
# kkt_solve works through at most this many workloads at a time
_KKT_BLOCK = 2 ** 16
# _joint_newton stops an entry after a step of at most this much in log x, which
# leaves an error of order its square
_KKT_STEP_TOL, _KKT_MAX_ITER = 2.0 ** -27, 100
# WorkloadPathSet draws, reflects and reduces its paths in blocks of about
# this many cells (see WorkloadPathSet.block_rows)
RBM_BLOCK_CELLS = 2 ** 16
# uniform draws are clipped into the open unit interval before the normal
# inverse CDF so a measure-zero 0.0 draw cannot produce -inf
_U_EPS = 2.0 ** -53


# ---------------------------------------------------------------------------
# variance rate of the workload diffusion
# ---------------------------------------------------------------------------

def workload_variance_rate(config: SystemConfig) -> float:
    """Variance rate v = lambda c_v + lambda^3 c_u m^2 of the limiting workload
    Brownian motion: variance_rate at q = 1 on the second moments of the
    config's laws (Dist.second_moment, the laws Dist.draws maps uniforms to).
    M/M/1 sanity check: lambda = mu gives v = 2 / lambda.  SystemConfig keeps
    the moments and lambda^3 finite, but v itself can still overflow
    (NonFiniteMomentError)."""
    alpha_u = config.arrival_dist.second_moment(config.lam)
    alpha_v = config.service_dist.second_moment(config.service_rates)
    with np.errstate(over="ignore", invalid="ignore"):   # reported once, by the error below
        v = float(variance_rate(config.lam, config.prevalences, config.service_rates, alpha_u,
                                alpha_v))
    if not np.isfinite(v):
        raise NonFiniteMomentError("variance rate overflowed")
    return v


# ---------------------------------------------------------------------------
# simulated RBM workload paths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkloadPathSet:
    """Reflected workload paths W = phi(sqrt(v) B) from zero on an even grid
    from 0.  Only each path's left-Riemann integral of W^2 is kept
    (integral_sq, jstar and jnaive take O(block_rows x len(grid)) memory);
    blocks() redraws the paths from the seed.  The paths are the same bits at
    any block size, and so is every integral: each path's is one row's sum."""

    grid: np.ndarray
    n_paths: int
    variance_rate: float
    seed: int
    isq: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if grid.ndim != 1 or grid.size < 101:
            raise ConfigError("need n_steps >= 100 for a usable Euler grid")
        _check_finite({"horizon": grid[-1]})   # before np.linspace, which warns on inf
        if not grid[-1] > 0 or not np.array_equal(grid, np.linspace(0.0, grid[-1], grid.size)):
            raise ConfigError("need an even grid from 0 to a horizon > 0")
        if self.n_paths < 1:
            raise ConfigError("need n_paths >= 1")
        _check_finite({"variance_rate": self.variance_rate})
        if self.variance_rate < 0:
            raise ConfigError("need variance_rate >= 0")
        _check_seed(self.seed)
        object.__setattr__(self, "grid", grid)
        # squared in place whole, which numpy runs about 3x as fast as the
        # strided left-endpoint view
        isq = self._integrate(lambda w: np.square(w, out=w)[:, :-1])
        isq.setflags(write=False)
        object.__setattr__(self, "isq", isq)

    def integral_sq(self) -> np.ndarray:
        """Left-endpoint Riemann sum of W(t)^2 over the grid, per path (read-only)."""
        return self.isq

    def _integrate(self, f) -> np.ndarray:
        """Per path, a left-endpoint Riemann sum over the grid: f(block) gives
        a block's values at its left grid points (f may overwrite the block,
        which blocks() rewrites in full), and each row's sum times the step
        T / n_steps is its path's integral.  numpy sums each row pairwise on
        its own, so no bit depends on the block's rows or on BLAS."""
        dt = self.grid[-1] / (self.grid.size - 1)
        return np.concatenate([f(w).sum(axis=1) * dt for w in self.blocks()])

    @property
    def block_rows(self) -> int:
        """Rows per block of blocks(): as many as fit in RBM_BLOCK_CELLS cells,
        and at least one (655 rows at 100 steps, 65 at 1,000, 26 at 2,500)."""
        return max(1, RBM_BLOCK_CELLS // (self.grid.size - 1))

    def blocks(self):
        """The paths block_rows rows at a time, as views of one reused buffer
        that each block rewrites in full.  Philox uniforms are drawn in row
        order, so the blocks stack to one matrix whatever their size."""
        from scipy.special import ndtri  # here, so only RBM draws load scipy
        n, n_steps = self.n_paths, self.grid.size - 1
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        scale = np.sqrt(self.variance_rate * (self.grid[-1] / n_steps))
        rows = self.block_rows
        path, scratch = np.empty((2, min(n, rows), n_steps + 1))
        for start in range(0, n, rows):
            w, s = path[:n - start], scratch[:n - start]   # the last block may be short
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
    if n_steps < 100:  # before np.linspace, which refuses a negative count
        raise ConfigError("need n_steps >= 100 for a usable Euler grid")
    _check_finite({"horizon": horizon})
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


def kkt_solve(r, config: SystemConfig) -> Allocation:
    """Workload split equalizing marginal value mu~_l C~'_l(x_l / rho~_l).

    When every label's mixture has one common power p, the split is
    homogeneous: x_l = r w_l / sum_m w_m, w_l = rho~_l (mu~_l c~_l)^(-1/(p-1)).
    Otherwise _joint_newton solves for it.  A total off r by more than KKT_TOL
    r (NaN included) or an entry still moving after _KKT_MAX_ITER steps is a
    BracketFailureError naming the workload.

    r may be an array (x then gains a trailing K axis, objective is per entry);
    NaN, infinite or negative entries are a ConfigError.  The solve runs on
    arrays, _KKT_BLOCK entries at a time; each entry stops on its own step,
    so no split depends on its batch.  The predicted classes come from
    derive_predicted_params(config), label l priced at C~_l = sum_k w_kl C_k
    (cost_terms), so every label must be non-empty (ZeroColumnError
    otherwise), unlike the one-class limit of the quadratic coefficients.
    """
    r_arr = np.asarray(r, dtype=float)
    if not (np.all(np.isfinite(r_arr)) and np.all(r_arr >= 0.0)):
        raise ConfigError("total workload must be finite and nonnegative")
    params, K = derive_predicted_params(config), config.n_classes
    # _joint_newton's last step takes slopes sum_k w_kl c_k (p_k - 1) x^(p_k - 2)
    bad = [non_finite(f"costs[{k}]", {"coeff": c.coeff, "power": c.power}, "its marginal-cost "
                      "slope coeff * (power - 1), times its largest posterior share, overflows")
           for k, c in enumerate(config.costs)
           if not math.isfinite(float(params.mix_weights[k].max()) * c.coeff * (c.power - 1.0))]
    if bad:
        raise ConfigError("; ".join(bad))
    e, s = cost_terms(config.costs, params.mix_weights)
    flat = r_arr.reshape(-1)
    x = np.zeros((K, flat.size))
    x[0] = flat  # the whole split when K == 1, and zero where r == 0
    for i in range(0, flat.size if K > 1 else 0, _KKT_BLOCK):
        rows = i + np.flatnonzero(flat[i:i + _KKT_BLOCK] > 0.0)
        x[:, rows] = _level_shares(flat[rows], params, e, s)
    w, t = params.mix_weights, x / params.rho_tilde[:, None]  # sum_l lambda~_l C~_l(t_l)
    objective = sum(params.lambda_tilde[l] * sum(w[k, l] * c(t[l]) for k, c in
                                                 enumerate(config.costs) if w[k, l] > 0)
                    for l in range(K))
    if r_arr.ndim == 0:
        return Allocation(r=float(r_arr), x=x[:, 0].copy(), objective=float(objective[0]))
    return Allocation(r=r_arr, x=x.T.reshape(r_arr.shape + (K,)),
                      objective=objective.reshape(r_arr.shape))


def _level_shares(r: np.ndarray, params: PredictedClassParams, e, s) -> np.ndarray:
    """Optimal splits, shape (K, len(r)), of a 1-D array of workloads r > 0 on
    cost_terms' table (e, s), each checked to sum to its r within KKT_TOL r."""
    rho, mu = params.rho_tilde, params.mu_tilde
    if len(e) == 1:
        # mu~_l c~_l (x_l / rho~_l)^(p-1) = y makes x_l proportional to w_l
        w = rho * (mu * s[0]) ** (-1.0 / e[0])
        x = w[:, None] * r / w.sum()
    else:
        x = _joint_newton(r, params, e, s)
    res, tol = np.abs(sum(x) - r), KKT_TOL * r
    if not np.all(res <= tol):  # NaN-safe
        i = int(np.argmax(~(res <= tol)))
        raise BracketFailureError(
            f"allocation level solve left residual {res[i]} > {tol[i]} at workload {r[i]}")
    return x


def _joint_newton(r: np.ndarray, params: PredictedClassParams, es, s) -> np.ndarray:
    """The split without a common power.  f'_l(x) = mu~_l C~'_l(x / rho~_l) is
    sum_e a_el x^e, a_el = mu~_l s_el / rho~_l^e on cost_terms' table (es, s).
    One Newton on the split and the level nu = f'_l(x_l) together (Boyd &
    Vandenberghe, Convex Optimization, 10.2) runs on u_l = log(x_l / r) and
    log nu, so no share turns negative and no value leaves the float range.
    With phi_l = log f'_l, slope phi'_l = x f''/f' in [min e, max e], and
    softmax weights pi_l linearizing log sum_l e^u_l = 0, a step is log nu =
    (sum pi phi / phi' - log sum e^u) / sum pi / phi', du_l = (log nu - phi_l)
    / phi'_l, from the level where the cheapest label alone takes all of r,
    each u_l the least at which one of its terms alone reaches that level.
    One step in x, nu = (r - sum x + sum f'/f'') / sum 1/f'', dx_l = (nu -
    f'_l) / f''_l, then removes the log arithmetic's error (near |log nu|
    ulps) where every f' and f'' is a normal float."""
    a = [(se * params.mu_tilde / params.rho_tilde ** e)[:, None] for se, e in zip(s, es)]  # (K, 1)
    with np.errstate(divide="ignore"):  # log 0 = -inf: a term the label lacks
        log_b = [np.log(ae) + e * np.log(r) for ae, e in zip(a, es)]  # log a_el r^e

    def log_marginal(u, i):  # phi_l and phi'_l at u_l, for the entries i
        lt = [lb[:, i] + e * u for lb, e in zip(log_b, es)]
        m = np.max(lt, axis=0)
        terms = [np.exp(t - m) for t in lt]
        s = sum(terms)
        return m + np.log(s), sum(e * t for e, t in zip(es, terms)) / s

    i = np.arange(r.size)
    log_nu = log_marginal(np.zeros((params.n_classes, r.size)), i)[0].min(axis=0)
    u = np.min([(log_nu - lb) / e for lb, e in zip(log_b, es)], axis=0)
    out = np.empty(u.shape)
    for _ in range(_KKT_MAX_ITER):
        phi, slope = log_marginal(u, i)
        share = np.exp(u)
        pi = share / sum(share)
        log_nu = (sum(pi * phi / slope) - np.log(sum(share))) / sum(pi / slope)
        step = (log_nu - phi) / slope
        u = out[:, i] = u + step
        live = np.max(np.abs(step), axis=0) > _KKT_STEP_TOL
        i, u = i[live], u[:, live]
        if i.size == 0:
            break
    else:
        raise BracketFailureError(f"allocation level solve did not converge in {_KKT_MAX_ITER} "
                                  f"steps at workload {r[i[0]]}")
    x = r * np.exp(out)
    with np.errstate(all="ignore"):  # refused below, entry by entry
        f1 = f2 = 0.0
        for ae, e in zip(a, es):
            t = ae * np.power(x, e - 1.0)
            f1, f2 = f1 + t * x, f2 + e * t
        polished = x + ((r - sum(x) + sum(f1 / f2)) / sum(1.0 / f2) - f1) / f2
    ok = (np.minimum(f1, f2) >= np.finfo(float).tiny) & (polished > 0.0) & (polished < np.inf)
    return np.where(np.all(ok, axis=0), polished, x)


def two_class_xstar(r: float, config: SystemConfig) -> np.ndarray:
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
    inv_beta = 1.0 / quadratic_coefficients(config).beta  # 0 on an empty label
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

    They price one config under its own K x K confusion matrix: beta and
    beta_naive are (K,) and the coefficients are scalars.  A label that is
    never predicted has beta = beta_naive = inf (see stiffness_coefficients).
    """

    beta: np.ndarray
    beta_naive: np.ndarray
    jstar_coeff: float | np.ndarray
    jnaive_coeff: float | np.ndarray


def variance_rate(lam, p, mu, alpha_u, alpha_v, q=1.0):
    """Workload variance rate of a rate-lam stream each arrival of which joins
    with probability q, shaped (...) for q of shape () or (...), p (..., K), mu
    and alpha_v = E[V_k^2] (K,) and alpha_u = E[U^2]: with m = sum_k p_k / mu_k,
    c_v = sum_k p_k alpha_v[k] - m^2 and c_u = alpha_u - 1/lam^2, each clipped
    at 0, v = lam q c_v + m^2 (q^2 lam^3 c_u + lam q (1 - q)); q = 1 is unsplit."""
    # x * x: numpy takes x ** 2 by pow for scalars only, and no point may hang on its batch
    m = (p * (1.0 / mu)).sum(axis=-1)
    c_v = (p * alpha_v).sum(axis=-1) - m * m
    c_u = alpha_u - 1.0 / lam ** 2
    count_var_rate = q * q * lam ** 3 * np.maximum(c_u, 0.0) + lam * q * (1.0 - q)
    return lam * q * np.maximum(c_v, 0.0) + m * m * count_var_rate


def stiffness_coefficients(lam, p, mu, c, q) -> tuple:
    """(1/beta, 1/beta_naive, jstar_coeff, jnaive_coeff, c_mix), shaped (..., K),
    (..., K), (...), (...) and (..., K), for lam of shape () or (...), p (..., K),
    mu and quadratic cost coefficients c (K,), and confusion matrices q (..., K, K).

    With s_l = sum_k p_k q_kl / mu_k and m_l = sum_k p_k q_kl c_k = p~_l c~_l,
    1/beta_l = lam s_l^2 / m_l, 1/beta_naive_l = lam s_l^2 / (p~_l c_l), c_mix_l = c~_l.
    A label never predicted (p~_l = 0) takes the one-class limit: all three are 0
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
    c_mix = np.divide(m, p_tilde, out=np.zeros_like(m), where=p_tilde > 0)
    return inv_beta, inv_naive, 1.0 / (lam * u.sum(axis=-1)), jnaive.sum(axis=-1), c_mix


def _stiffness(config: SystemConfig, q) -> tuple:
    """stiffness_coefficients of config's quadratic costs under confusion
    matrices q of shape (..., K, K)."""
    if not config.all_quadratic():
        raise NonQuadraticError("coefficient formulas require power-2 costs")
    return stiffness_coefficients(config.lam, config.prevalences, config.service_rates,
                                  np.array([fn.coeff for fn in config.costs]), q)


def quadratic_coefficients(config: SystemConfig) -> QuadraticCostCoefficients:
    """Coefficients of config under its own classifier."""
    inv_beta, inv_naive, jstar_coeff, jnaive_coeff, _ = _stiffness(
        config, config.confusion.entries)
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
    mean, stderr = _mean_stderr(per_path)
    return JEstimate(per_path=per_path, mean=float(mean), stderr=float(stderr))


def jstar(config: SystemConfig, w_paths: WorkloadPathSet) -> JEstimate:
    """Expected integrated cost of config's optimal workload split along W
    paths: the quadratic closed form when every cost is quadratic, else
    kkt_solve at every grid point (any convex costs; every predicted label
    non-empty).  Another classifier is priced as config.with_confusion(q)."""
    if config.all_quadratic():
        return _estimate(quadratic_coefficients(config).jstar_coeff * 0.5 * w_paths.integral_sq())
    return _estimate(w_paths._integrate(lambda w: kkt_solve(w[:, :-1], config).objective))


def jnaive(config: SystemConfig, w_paths: WorkloadPathSet) -> JEstimate:
    """Integrated cost when workload is split by label-only stiffness but
    charged at the true mixture costs (quadratic only)."""
    return _estimate(quadratic_coefficients(config).jnaive_coeff * 0.5 * w_paths.integral_sq())


def relative_regret(config: SystemConfig) -> float:
    """jstar coefficient of config over that of the perfect classifier I.
    >= 1, equal to 1 iff the classifier costs nothing; the W factor cancels,
    so the ratio needs no simulation."""
    return float(rank_models(config.confusion.entries[None], config)[1][0])


def rank_models(q, config: SystemConfig) -> tuple:
    """(order, relative_regret, jstar_coeff, jnaive_coeff) of an (n, K, K)
    stack q of candidate confusion matrices priced under config.

    The three value columns are (n,) in input order; order is their stable
    argsort by regret (ascending), so exact ties keep input order.  A stack
    of another shape is a ConfigError (ShapeMismatch).
    """
    q, k = np.asarray(q, dtype=float), config.n_classes
    if q.ndim != 3 or q.shape[1:] != (k, k):
        raise ConfigError(shape_mismatch({"config": k, "candidates": q.shape}))
    _, _, jstar_coeff, jnaive_coeff, _ = _stiffness(config, q)
    regret = jstar_coeff / _stiffness(config, np.eye(k))[2]
    return np.argsort(regret, kind="stable"), regret, jstar_coeff, jnaive_coeff
