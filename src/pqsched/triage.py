"""Design of an AI triage stage in front of a pool of human reviewers.

Content arrives at total rate Lambda with a toxic share p_1 and a non-toxic
share p_2.  A scorer assigns each item a score in [0,1]; items scoring below
the filtering level z_fl are auto-resolved, the rest are routed uniformly at
random to one of Gamma(z_fl) reviewers, each an independent single-server
queue running the predicted-class index rule with the toxicity threshold
z_tx >= z_fl acting as the classifier.

The steady design cost at t = 1 decomposes into four parts:

  filtering       mistakes made by auto-resolving below z_fl
  hiring          c_r * Gamma(z_fl)
  misclassification  reviewer label errors at threshold z_tx
  queueing        Gamma * (expected integrated delay cost of one reviewer)

Reviewers are statistically identical, so one reviewer's reflected-Brownian
queue cost is computed and multiplied by Gamma.  The staffing rule
Gamma = Lambda sum_k p_k g_k(z_fl) / mu_k puts every reviewer exactly at
critical load, which is what makes the RBM approximation the right tool.

total_cost prices the four parts and reviewer_params gives one reviewer's
primitives, at thresholds or arrays of them; evaluate_grid prices a whole
grid in one array pass: one interpolation per curve, elementwise formulas
and one unit-RBM draw shared by every point.  Its decisions come back as
columns, one array per cost, not one object per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyClassError, EmptyGridError, EmptyPassError
from .httheory import bm_workload_paths, stiffness_coefficients, variance_rate
from .model import (Dist, _check_finite, _field, _from_json, _integer, _number_list, _typed,
                    cube_overflow, load_json)

__all__ = [
    "PassingCurves",
    "TriageConfig",
    "ReviewerParams",
    "McParams",
    "TriageDecision",
    "reviewer_params",
    "total_cost",
    "evaluate_grid",
    "load_triage_config",
]

DEFAULT_SCORE_GRID = 101
DEFAULT_LOGIT_GRID = 1001
_MONOTONE_TOL = 1e-9
_SQRT1_2 = math.sqrt(0.5)


def _ndtr(a) -> np.ndarray:
    """The standard normal CDF of an array: 0.5 erfc(-a / sqrt 2), libm's erfc per entry."""
    x = np.asarray(a, dtype=float) * -_SQRT1_2
    return 0.5 * np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


class PassingCurves:
    """Pass-rate curves g_k(z) = P[score >= z | class k], k in {0: toxic,
    1: non-toxic}, stored as piecewise-linear interpolants on a score grid.

    Each curve is nonincreasing with g_k(0) = 1.  All constructors funnel
    into the grid form so curves serialize and compare uniformly.
    """

    def __init__(self, grid: Sequence[float], values: Sequence[Sequence[float]]):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigError("curve grid needs at least two points")
        if values.shape != (2, grid.size):
            raise ConfigError("curve values must be shaped (2, len(grid))")
        _check_finite({"curves.z": grid, "curves.g_toxic": values[0],
                       "curves.g_nontoxic": values[1]})
        if grid[0] != 0.0 or grid[-1] != 1.0 or np.any(np.diff(grid) <= 0):
            raise ConfigError("curve grid must increase strictly from 0 to 1")
        if np.any(values < -_MONOTONE_TOL) or np.any(values > 1 + _MONOTONE_TOL):
            raise ConfigError("pass rates must lie in [0, 1]")
        if np.any(np.abs(values[:, 0] - 1.0) > _MONOTONE_TOL):
            raise ConfigError("pass rate at score 0 must be 1")
        if np.any(np.diff(values, axis=1) > _MONOTONE_TOL):
            raise ConfigError("pass rates must be nonincreasing in z")
        values = np.clip(values, 0.0, 1.0)
        values[:, 0] = 1.0
        self.grid = grid
        self.values = values
        self.grid.setflags(write=False)
        self.values.setflags(write=False)

    def g(self, k: int, z) -> float:
        """Linear interpolation of curve k at score(s) z."""
        if k not in (0, 1):
            raise ConfigError("curve index must be 0 (toxic) or 1 (non-toxic)")
        out = np.interp(z, self.grid, self.values[k])
        return float(out) if np.isscalar(z) else out

    @classmethod
    def from_gaussian_logit(cls, locs: Sequence[float], scales: Sequence[float],
                            grid_size: int = DEFAULT_LOGIT_GRID) -> "PassingCurves":
        """Scores are sigmoid(L) with L ~ Normal(loc_k, scale_k):
        g_k(z) = Phi((loc_k - logit z) / scale_k), so the pair (loc, scale)
        controls how sharply each class's mass sits above a threshold.

        Phi is 0.5 erfc(-x / sqrt 2) with the C library's erfc, so these
        curves load no scipy."""
        if len(locs) != 2 or len(scales) != 2:
            raise ConfigError("need one (loc, scale) pair per class")
        _check_finite({"curves.loc": locs, "curves.scale": scales})
        if min(scales) <= 0:
            raise ConfigError("scales must be positive")
        if int(grid_size) < 2:
            raise ConfigError("curve grid needs at least two points")
        # past about 2**60 points numpy refuses the size itself, not with a MemoryError
        if int(grid_size) > (most := np.iinfo(np.intp).max // 16):
            raise ConfigError(f"curve grid needs at most {most} points")
        grid = np.linspace(0.0, 1.0, int(grid_size))
        inner = np.clip(grid, 1e-12, 1 - 1e-12)
        logit = np.log(inner) - np.log1p(-inner)
        with np.errstate(over="ignore"):  # a subnormal scale: +-inf, whose Phi is 0 or 1
            values = _ndtr((np.asarray(locs, dtype=float)[:, None] - logit)
                           / np.asarray(scales, dtype=float)[:, None])
        values[:, 0], values[:, -1] = 1.0, 0.0
        return cls(grid, values)

    @classmethod
    def from_samples(cls, scores_toxic, scores_nontoxic,
                     grid_size: int = DEFAULT_SCORE_GRID) -> "PassingCurves":
        """Empirical complements: g_k(z) = fraction of class-k scores >= z."""
        grid = np.linspace(0.0, 1.0, int(grid_size))
        values = np.empty((2, grid.size))
        for k, scores in enumerate((scores_toxic, scores_nontoxic)):
            s = np.asarray(scores, dtype=float)
            if s.size == 0:
                raise EmptyClassError(f"no validation scores for class {k + 1}")
            if np.any(s < 0) or np.any(s > 1):
                raise ConfigError("scores must lie in [0, 1]")
            s = np.sort(s)
            # fraction of scores >= z, evaluated on the grid
            values[k] = 1.0 - np.searchsorted(s, grid, side="left") / s.size
        return cls(grid, values)


@dataclass(frozen=True)
class TriageConfig:
    """Primitives of the triage design problem.

    Sign conventions: filtering a truly toxic item costs c_trp > 0, filtering
    a non-toxic item saves review effort, c_trn < 0; reviewers cost c_r > 0
    per unit time.  Reviewer label outcomes carry c_tp/c_fn (toxic items) and
    c_fp/c_tn (non-toxic items), any sign.  Delay costs are quadratic with
    coefficients delay_costs.  alpha_u / alpha_v are second moments of the
    total-stream interarrival and the per-class service times, at least the
    squared means 1/Lambda^2 and 1/mu_k^2 (to a relative 1e-12); omit them
    for the exponential defaults.  Every number, the curves' and the defaults
    included, and Lambda ** 3 must be finite: a NaN or an infinity is a
    ConfigError naming its field.
    """

    Lambda: float
    p: tuple
    mu: tuple
    curves: PassingCurves
    c_trp: float
    c_trn: float
    c_fp: float
    c_fn: float
    c_tp: float
    c_tn: float
    c_r: float
    delay_costs: tuple
    alpha_u: Optional[float] = None
    alpha_v: Optional[tuple] = None

    def __post_init__(self):
        _check_finite({f.name: getattr(self, f.name) for f in fields(self)
                       if f.name != "curves" and getattr(self, f.name) is not None})
        if self.Lambda <= 0:
            raise ConfigError("Lambda must be positive")
        if len(self.p) != 2 or abs(sum(self.p) - 1.0) > 1e-12 or min(self.p) < 0:
            raise ConfigError("p must be two nonnegative shares summing to 1")
        if len(self.mu) != 2 or min(self.mu) <= 0:
            raise ConfigError("mu must be two positive rates")
        if self.c_trp <= 0:
            raise ConfigError("c_trp must be positive (filtering toxic content hurts)")
        if self.c_trn >= 0:
            raise ConfigError("c_trn must be negative (filtering safe content saves work)")
        if self.c_r <= 0:
            raise ConfigError("c_r must be positive")
        if len(self.delay_costs) != 2 or min(self.delay_costs) <= 0:
            raise ConfigError("delay_costs must be two positive coefficients")
        for error in cube_overflow("Lambda", self.Lambda):
            raise ConfigError(error)
        exponential = Dist("exponential")
        defaults = {"alpha_u": exponential.second_moment(self.Lambda),
                    "alpha_v": tuple(map(exponential.second_moment, self.mu))}
        for name, default in defaults.items():
            if getattr(self, name) is None:
                _check_finite({name: default}, "its exponential default overflows")
                object.__setattr__(self, name, default)
        if len(self.alpha_v) != 2:
            raise ConfigError("alpha_v must be two second moments")
        least = Dist("deterministic").second_moment   # 1/rate^2, a law's least E[X^2]
        for name, moment, rate, of in (("alpha_u", self.alpha_u, self.Lambda, "Lambda"),
                                       ("alpha_v[0]", self.alpha_v[0], self.mu[0], "mu[0]"),
                                       ("alpha_v[1]", self.alpha_v[1], self.mu[1], "mu[1]")):
            if moment < (1.0 - 1e-12) * least(rate):
                raise ConfigError(f"{name} = {moment} is below its law's squared mean "
                                  f"1/{of}^2 = {least(rate)}")


@dataclass(frozen=True)
class McParams:
    """Monte Carlo controls for the reviewer RBM (shared across grid points
    so threshold comparisons ride on common random numbers)."""

    n_paths: int = 2000
    n_steps: int = 400
    seed: int = 0


def _check_thresholds(z) -> tuple:
    """z = (z_fl, z_tx) as float arrays; the first bad point (in flat order)
    raises its first complaint."""
    z_fl, z_tx = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in z))
    bad = ~((z_fl >= 0.0) & (z_tx <= 1.0) & (z_fl <= z_tx))
    for fl, tx in zip(z_fl[bad][:1].tolist(), z_tx[bad][:1].tolist()):
        for name, value in (("z_fl", fl), ("z_tx", tx)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name}={value} outside [0, 1]")
        raise ConfigError(f"z_tx={tx} must be >= z_fl={fl}")
    return z_fl, z_tx


@dataclass(frozen=True)
class ReviewerParams:
    """One reviewer's queue seen as a two-class system with classifier z_tx.

    p_mix: class shares among passing items; q: 2x2 confusion of the
    threshold rule (column 0 = predicted toxic); lam_r: arrival rate per
    reviewer; pass_prob: sum_k p_k g_k(z_fl); c_mix: mixture delay-cost
    coefficients per predicted class; variance_rate: of the workload, each
    arrival reaching the reviewer with probability q = pass_prob / Gamma.
    Arrays of thresholds give arrays of their shape, with trailing class axes
    on p_mix, c_mix (one) and q (two).
    """

    z_fl: float
    z_tx: float
    gamma: float
    lam_r: float
    pass_prob: float
    p_mix: np.ndarray
    q: np.ndarray
    c_mix: np.ndarray
    variance_rate: Optional[float] = None


def _design(z_fl, z_tx, config: TriageConfig, mc: Optional[McParams] = None) -> tuple:
    """(ReviewerParams, {term: array}) at arrays of thresholds: one np.interp
    per curve, then one elementwise formula per term, the reviewer's queue
    cost only given mc; NaN where no reviewer is staffed, and terms
    ["understaffed"] marks the points staffed below their passing share.  The
    reviewer's queue coefficient is the jstar_coeff of stiffness_coefficients,
    so an empty predicted label takes the one-class limit.
    """
    z_fl, z_tx = np.broadcast_arrays(np.asarray(z_fl, dtype=float), np.asarray(z_tx, dtype=float))
    g_fl, g_tx = np.stack([np.interp(np.stack([z_fl, z_tx]), config.curves.grid, v)
                           for v in config.curves.values], axis=-1)
    (g0, g1), (p0, p1), L = np.moveaxis(g_fl, -1, 0), config.p, config.Lambda
    mu, c = np.asarray(config.mu), np.asarray(config.delay_costs)
    weights = np.asarray(config.p) * g_fl
    pass_prob = weights.sum(axis=-1)
    gamma = L * (weights / mu).sum(axis=-1)
    terms = {"filtering": L * (config.c_trp * p0 * (1.0 - g0) + config.c_trn * p1 * (1.0 - g1))}
    with np.errstate(divide="ignore", invalid="ignore"):
        p_mix = weights / pass_prob[..., None]
        # classes that never pass the filter contribute no arrivals; their
        # confusion row is unobservable and pinned to "predicted non-toxic"
        q_toxic = np.divide(g_tx, g_fl, out=np.zeros_like(g_fl), where=g_fl > 0)
        q, (q11, q21) = np.stack([q_toxic, 1.0 - q_toxic], axis=-1), np.moveaxis(q_toxic, -1, 0)
        terms["misclass"] = L * (p0 * g0 * (config.c_tp * q11 + config.c_fn * (1.0 - q11))
                                 + p1 * g1 * (config.c_fp * q21 + config.c_tn * (1.0 - q21)))
        q_split = pass_prob / gamma
        lam_r = L * q_split
        # staffed below its passing share, Gamma < pass_prob, a filtering level
        # would route each arrival to one reviewer with probability q > 1
        terms["understaffed"] = (gamma > 0.0) & (q_split > 1.0)
        variance = variance_rate(L, p_mix, mu, config.alpha_u, config.alpha_v, q_split)
        _, _, coeff, _, c_mix = stiffness_coefficients(lam_r, p_mix, mu, c, q)
    if mc is not None:
        # mean int_0^1 W^2 dt over unit-variance RBM paths: reflection commutes
        # with the sqrt(v) scaling, so one draw serves every threshold
        paths = bm_workload_paths(1.0, mc.n_steps, 1.0, mc.n_paths, mc.seed)
        base = float(paths.integral_sq().mean())
        terms["queue"] = coeff * 0.5 * variance * base
    params = ReviewerParams(z_fl=z_fl[()], z_tx=z_tx[()], gamma=gamma[()], lam_r=lam_r[()],
                            pass_prob=pass_prob[()], p_mix=p_mix, q=q, c_mix=c_mix,
                            variance_rate=variance[()])
    return params, terms


def _check_staffed(unstaffed, pass_prob, z_fl):
    """EmptyPassError at the first unstaffed point: nothing passes the filter
    there, or so little that Gamma underflows to 0."""
    for i in np.flatnonzero(unstaffed)[:1]:
        why = ("no content passes the filter" if pass_prob.flat[i] <= 0.0
               else "the reviewer count Gamma underflows to 0")
        raise EmptyPassError(f"{why} at z_fl={z_fl.flat[i]}")


def _check_feasible(understaffed, z_fl):
    """ConfigError at the first point staffed below its passing share."""
    for i in np.flatnonzero(understaffed)[:1]:
        raise ConfigError(f"infeasible design at z_fl={z_fl.flat[i]}: Gamma is below the passing "
                          "share, so the split probability q = pass_prob / Gamma exceeds 1")


def reviewer_params(z, config: TriageConfig) -> ReviewerParams:
    """Limiting per-reviewer primitives at thresholds z = (z_fl, z_tx);
    EmptyPassError where unstaffed, ConfigError where understaffed."""
    z_fl, z_tx = _check_thresholds(z)
    params, terms = _design(z_fl, z_tx, config)
    _check_staffed(params.gamma <= 0.0, params.pass_prob, z_fl)
    _check_feasible(terms["understaffed"], z_fl)
    return params


@dataclass(frozen=True)
class TriageDecision:
    """One evaluated threshold pair with its cost breakdown at t = 1
    (arrays of them for arrays of thresholds)."""

    z_fl: float
    z_tx: float
    gamma: float
    filtering: float
    hiring: float
    misclassification: float
    queueing: float

    @property
    def total(self) -> float:
        return self.filtering + self.hiring + self.misclassification + self.queueing


def total_cost(z, config: TriageConfig, mc: McParams = McParams()) -> TriageDecision:
    """Four-part design cost at thresholds z = (z_fl, z_tx), evaluated at t=1."""
    z_fl, z_tx = _check_thresholds(z)
    decisions, understaffed = _decisions(z_fl, z_tx, config, mc)
    _check_feasible(understaffed, z_fl)
    return decisions


def _decisions(z_fl, z_tx, config: TriageConfig, mc: McParams) -> tuple:
    """(TriageDecision, mask of the points staffed below their passing share).
    A cost that overflows the float range at a point staffed at or above its
    passing share is a ConfigError naming the cost and the point's z_fl."""
    with np.errstate(over="ignore", invalid="ignore"):
        params, terms = _design(z_fl, z_tx, config, mc)
        # where everything is auto-resolved: no reviewers, no labels, no queues
        passes = params.pass_prob > 0.0
        _check_staffed(passes & (params.gamma <= 0.0), params.pass_prob, z_fl)
        gamma = np.where(passes, params.gamma, 0.0)
        decision = TriageDecision(
            z_fl=z_fl[()], z_tx=z_tx[()], gamma=gamma[()], filtering=terms["filtering"][()],
            hiring=(config.c_r * gamma)[()],
            misclassification=np.where(passes, terms["misclass"], 0.0)[()],
            queueing=np.where(passes, gamma * terms["queue"], 0.0)[()])
        costs = {name: np.asarray(getattr(decision, name)) for name in
                 ("gamma", "filtering", "hiring", "misclassification", "queueing", "total")}
    for name, value in costs.items():
        for i in np.flatnonzero(~np.isfinite(value) & ~terms["understaffed"])[:1]:
            raise ConfigError(f"NonFinite: {name} = {value.flat[i]} at z_fl={z_fl.flat[i]} "
                              "(overflows the float range)")
    return decision, terms["understaffed"]


def evaluate_grid(config: TriageConfig, z_tx, zfl_grid,
                  mc: McParams = McParams()) -> tuple:
    """total_cost at every feasible (z_fl, z_tx) pair, as one array pass
    with common random numbers: (decisions, skipped), decisions one
    TriageDecision of 1-D arrays, a point per entry, in (z_fl, z_tx) order.

    z_tx may be a scalar or a grid; pairs with z_tx < z_fl are skipped, and
    so are filtering levels staffed below their passing share (q > 1);
    skipped counts them as "z_tx_below_z_fl" and "gamma_below_pass_share".
    Raises EmptyGridError if no pair is left.
    """
    axes = (np.sort(np.atleast_1d(np.asarray(g, dtype=float)), kind="stable")
            for g in (zfl_grid, z_tx))
    z_fl, z_tx = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    feasible, understaffed = ~(z_tx < z_fl), np.ones(0, dtype=bool)
    if feasible.any():
        d, understaffed = _decisions(*_check_thresholds((z_fl[feasible], z_tx[feasible])),
                                     config, mc)
    if understaffed.all():   # true too when no pair was feasible
        raise EmptyGridError("no feasible (z_fl, z_tx) pair on the grids")
    kept = TriageDecision(**{name: value[~understaffed] for name, value in vars(d).items()})
    return kept, {"z_tx_below_z_fl": int(np.count_nonzero(~feasible)),
                  "gamma_below_pass_share": int(np.count_nonzero(understaffed))}


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def curves_from_json(doc, name: str = "curves") -> PassingCurves:
    """Curve spec: {"kind": "gaussian_logit", "loc": [.,.], "scale": [.,.]} and
    an optional integer "grid_size", or {"kind": "grid", "z": [...], "g_toxic":
    [...], "g_nontoxic": [...]}; its keys are named name.key."""
    kind = _field(doc, "kind", name,
                  lambda tag, path: _typed(tag, path, isinstance(tag, str), "a string"))
    if kind == "gaussian_logit":
        return PassingCurves.from_gaussian_logit(
            *(_field(doc, key, name, _number_list) for key in ("loc", "scale")),
            _field(doc, "grid_size", name, _integer, DEFAULT_LOGIT_GRID))
    if kind == "grid":
        z, *g = (_field(doc, key, name, _number_list) for key in ("z", "g_toxic", "g_nontoxic"))
        if len(g[0]) != len(g[1]):
            raise ConfigError("curve values must be shaped (2, len(grid))")
        return PassingCurves(z, g)
    raise ConfigError(f"unknown curve kind {kind!r}")


def triage_config_from_json(doc: dict) -> TriageConfig:
    return _from_json(TriageConfig, doc, readers={"PassingCurves": curves_from_json})


def load_triage_config(path) -> TriageConfig:
    return triage_config_from_json(load_json(path))
