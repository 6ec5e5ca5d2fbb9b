"""Reference triage designer: the oracle the array grid pass is checked against.

This is the per-point path pqsched used to ship: every (z_fl, z_tx) pair of
`evaluate_grid` calls `total_cost`, which interpolates the curves one
threshold at a time, builds the reviewer's two-class `SystemConfig` and
takes `quadratic_coefficients(...).jstar_coeff` from it -- here the
per-config oracle of `reference_coefficients`, so this oracle shares no
algebra with the stacked coefficient kernel.  The functions are copied
unchanged, but for `reviewer_variance_rate`'s formula, which
`split_variance_rate` holds with the same operations so that it can check
the variance kernel for any class count; the dataclasses they build
(`ReviewerParams`, `TriageDecision`) and the configs they read stay in
`pqsched.triage`.

Like the old code, this oracle raises `ZeroColumnError` when one of the
reviewer's predicted labels is empty (z_fl = z_tx, or z_tx = 1).

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from pqsched.errors import ConfigError, EmptyGridError, EmptyPassError
from pqsched.httheory import bm_workload_paths
from pqsched.triage import McParams, ReviewerParams, TriageConfig, TriageDecision
from helpers import reviewer_system_config
from reference_coefficients import quadratic_coefficients


def staffing(z_fl: float, config: TriageConfig) -> float:
    """Gamma(z_fl) = Lambda sum_k p_k g_k(z_fl) / mu_k -- the real-valued
    reviewer count that keeps every reviewer exactly critically loaded."""
    g = [config.curves.g(k, z_fl) for k in range(2)]
    return config.Lambda * sum(
        config.p[k] * g[k] / config.mu[k] for k in range(2))


def reviewer_params(z, config: TriageConfig) -> ReviewerParams:
    """Limiting per-reviewer primitives at thresholds z = (z_fl, z_tx)."""
    z_fl, z_tx = _check_thresholds(z)
    g_fl = np.array([config.curves.g(k, z_fl) for k in range(2)])
    g_tx = np.array([config.curves.g(k, z_tx) for k in range(2)])
    p = np.asarray(config.p, dtype=float)
    weights = p * g_fl
    pass_prob = float(weights.sum())
    if pass_prob <= 0.0:
        raise EmptyPassError(f"no content passes the filter at z_fl={z_fl}")
    gamma = staffing(z_fl, config)
    if gamma <= 0.0:
        raise EmptyPassError(f"the reviewer count Gamma underflows to 0 at z_fl={z_fl}")
    if _understaffed(pass_prob, gamma):
        raise ConfigError(f"infeasible design at z_fl={z_fl}: Gamma is below the passing "
                          "share, so the split probability q = pass_prob / Gamma exceeds 1")
    p_mix = weights / pass_prob
    q = np.empty((2, 2))
    for k in range(2):
        # classes that never pass the filter contribute no arrivals; their
        # confusion row is unobservable and pinned to "predicted non-toxic"
        q[k, 0] = g_tx[k] / g_fl[k] if g_fl[k] > 0 else 0.0
        q[k, 1] = 1.0 - q[k, 0]
    lam_r = config.Lambda * pass_prob / gamma
    c = np.asarray(config.delay_costs, dtype=float)
    p_tilde = p_mix @ q
    c_mix = np.empty(2)
    for l in range(2):
        c_mix[l] = (p_mix * q[:, l] @ c) / p_tilde[l] if p_tilde[l] > 0 else 0.0
    return ReviewerParams(z_fl=z_fl, z_tx=z_tx, gamma=gamma, lam_r=lam_r,
                          pass_prob=pass_prob, p_mix=p_mix, q=q, c_mix=c_mix)


def _understaffed(pass_prob: float, gamma: float) -> bool:
    """Fewer reviewers than the passing share: q = pass_prob / Gamma > 1."""
    return gamma > 0.0 and pass_prob / gamma > 1.0


def _check_thresholds(z) -> tuple:
    z_fl, z_tx = float(z[0]), float(z[1])
    for name, value in (("z_fl", z_fl), ("z_tx", z_tx)):
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name}={value} outside [0, 1]")
    if z_tx < z_fl:
        raise ConfigError(f"z_tx={z_tx} must be >= z_fl={z_fl}")
    return z_fl, z_tx


def filtering_cost_rate(z_fl: float, config: TriageConfig) -> float:
    """Cost rate of auto-resolving everything scoring below z_fl."""
    g = [config.curves.g(k, z_fl) for k in range(2)]
    return config.Lambda * (config.c_trp * config.p[0] * (1.0 - g[0])
                            + config.c_trn * config.p[1] * (1.0 - g[1]))


def misclass_cost_rate(z, config: TriageConfig) -> float:
    """Cost rate of reviewer label outcomes at threshold z_tx among passers."""
    z_fl, z_tx = _check_thresholds(z)
    g_fl = [config.curves.g(k, z_fl) for k in range(2)]
    g_tx = [config.curves.g(k, z_tx) for k in range(2)]
    q11 = g_tx[0] / g_fl[0] if g_fl[0] > 0 else 0.0
    q21 = g_tx[1] / g_fl[1] if g_fl[1] > 0 else 0.0
    toxic = config.p[0] * g_fl[0] * (config.c_tp * q11 + config.c_fn * (1.0 - q11))
    nontox = config.p[1] * g_fl[1] * (config.c_fp * q21 + config.c_tn * (1.0 - q21))
    return config.Lambda * (toxic + nontox)


def reviewer_variance_rate(z_fl: float, config: TriageConfig) -> float:
    """Variance rate of one reviewer's workload diffusion.

    A reviewer receives each of the Lambda-stream arrivals independently with
    probability q = pass_prob / Gamma, so the arrival-count variance rate is
    q^2 Lambda^3 c_u + Lambda q (1 - q) (splitting noise included; for a
    Poisson stream this collapses to lam_r, the thinned-Poisson rate).  Work
    variance uses the passing mix at z_fl.
    """
    params = reviewer_params((z_fl, z_fl), config)
    return split_variance_rate(config.Lambda, params.p_mix, config.mu, config.alpha_u,
                               config.alpha_v, params.pass_prob / params.gamma, params.lam_r)


def split_variance_rate(Lambda, p_mix, mu, alpha_u, alpha_v, q_split, lam_r) -> float:
    """reviewer_variance_rate's formula on its own primitives, for any number
    of classes: lam_r is the reviewer's arrival rate, Lambda q_split."""
    alpha_v = np.asarray(alpha_v, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mean_work = float(p_mix @ (1.0 / mu))
    c_v = float(p_mix @ alpha_v) - mean_work ** 2
    c_u = alpha_u - 1.0 / Lambda ** 2
    count_var_rate = (q_split ** 2 * Lambda ** 3 * max(c_u, 0.0)
                      + Lambda * q_split * (1.0 - q_split))
    return lam_r * max(c_v, 0.0) + mean_work ** 2 * count_var_rate


@lru_cache(maxsize=8)
def _unit_rbm_mean_isq(n_paths: int, n_steps: int, seed: int, horizon: float) -> float:
    """Mean of int W^2 dt over unit-variance RBM paths; reused across the
    threshold grid because reflection commutes with the sqrt(v) scaling."""
    paths = bm_workload_paths(1.0, n_steps, horizon, n_paths, seed)
    return float(paths.integral_sq().mean())


def reviewer_queue_cost(z, config: TriageConfig, mc: McParams = McParams()) -> float:
    """Expected integrated delay cost of one reviewer over [0, horizon].

    The coefficient is the optimal-split quadratic constant of the reviewer's
    two-class system (equal to beta_1 beta_2 / (beta_1 + beta_2)); the
    workload factor is a Monte Carlo mean of int W^2 over RBM paths with the
    per-reviewer variance rate.
    """
    params = reviewer_params(z, config)
    cfg = reviewer_system_config(params, config, horizon=1.0)
    coeff = quadratic_coefficients(cfg).jstar_coeff
    v = reviewer_variance_rate(params.z_fl, config)
    base = _unit_rbm_mean_isq(mc.n_paths, mc.n_steps, mc.seed, 1.0)
    return coeff * 0.5 * v * base


def total_cost(z, config: TriageConfig, mc: McParams = McParams()) -> TriageDecision:
    """Four-part design cost at thresholds z = (z_fl, z_tx), evaluated at t=1."""
    z_fl, z_tx = _check_thresholds(z)
    gamma = staffing(z_fl, config)
    filtering = filtering_cost_rate(z_fl, config)
    g_fl = [config.curves.g(k, z_fl) for k in range(2)]
    pass_prob = sum(config.p[k] * g_fl[k] for k in range(2))
    if pass_prob <= 0.0:
        # everything auto-resolved: no reviewers, no labels, no queues
        return TriageDecision(z_fl=z_fl, z_tx=z_tx, gamma=0.0,
                              filtering=filtering, hiring=0.0,
                              misclassification=0.0, queueing=0.0)
    return TriageDecision(
        z_fl=z_fl,
        z_tx=z_tx,
        gamma=gamma,
        filtering=filtering,
        hiring=config.c_r * gamma,
        misclassification=misclass_cost_rate((z_fl, z_tx), config),
        queueing=gamma * reviewer_queue_cost((z_fl, z_tx), config, mc),
    )


def evaluate_grid(config: TriageConfig, z_tx, zfl_grid,
                  mc: McParams = McParams()) -> list:
    """total_cost at every feasible (z_fl, z_tx) pair, common random numbers.

    z_tx may be a scalar or a grid; pairs with z_tx < z_fl are skipped, and
    so are filtering levels staffed below their passing share (q > 1).
    Results are ordered by (z_fl, z_tx).
    """
    zfl_values = np.atleast_1d(np.asarray(zfl_grid, dtype=float))
    ztx_values = np.atleast_1d(np.asarray(z_tx, dtype=float))
    decisions = []
    for z_fl in sorted(zfl_values):
        for ztx in sorted(ztx_values):
            if ztx < z_fl:
                continue
            _check_thresholds((z_fl, ztx))
            g_fl = [config.curves.g(k, z_fl) for k in range(2)]
            pass_prob = sum(config.p[k] * g_fl[k] for k in range(2))
            if _understaffed(pass_prob, staffing(z_fl, config)):
                continue
            decisions.append(total_cost((z_fl, ztx), config, mc))
    if not decisions:
        raise EmptyGridError("no feasible (z_fl, z_tx) pair on the grids")
    return decisions


def optimize(config: TriageConfig, z_tx, zfl_grid,
             mc: McParams = McParams()) -> TriageDecision:
    """Grid argmin of total cost; ties resolve to the smaller (z_fl, z_tx)."""
    return min(evaluate_grid(config, z_tx, zfl_grid, mc), key=lambda d: d.total)
