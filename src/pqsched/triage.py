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

Every cost function takes thresholds or arrays of them, and evaluate_grid
prices a whole threshold grid in one array pass: one interpolation per curve,
elementwise formulas and one unit-RBM draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyClassError, EmptyGridError, EmptyPassError
from .httheory import bm_workload_paths, stiffness_coefficients
from .model import load_json

__all__ = [
    "PassingCurves",
    "TriageConfig",
    "ReviewerParams",
    "McParams",
    "TriageDecision",
    "staffing",
    "reviewer_params",
    "filtering_cost_rate",
    "misclass_cost_rate",
    "reviewer_variance_rate",
    "reviewer_queue_cost",
    "total_cost",
    "evaluate_grid",
    "load_triage_config",
]

DEFAULT_SCORE_GRID = 101
_MONOTONE_TOL = 1e-9


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
    def from_grid(cls, grid, g_toxic, g_nontoxic) -> "PassingCurves":
        return cls(grid, np.vstack([g_toxic, g_nontoxic]))

    @classmethod
    def from_gaussian_logit(cls, locs: Sequence[float], scales: Sequence[float],
                            grid_size: int = 1001) -> "PassingCurves":
        """Scores are sigmoid(L) with L ~ Normal(loc_k, scale_k):
        g_k(z) = Phi((loc_k - logit z) / scale_k), so the pair (loc, scale)
        controls how sharply each class's mass sits above a threshold."""
        from scipy.special import ndtr  # here, so only these curves load scipy
        if len(locs) != 2 or len(scales) != 2:
            raise ConfigError("need one (loc, scale) pair per class")
        if min(scales) <= 0:
            raise ConfigError("scales must be positive")
        grid = np.linspace(0.0, 1.0, int(grid_size))
        inner = np.clip(grid, 1e-12, 1 - 1e-12)
        logit = np.log(inner) - np.log1p(-inner)
        values = ndtr((np.asarray(locs, dtype=float)[:, None] - logit)
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
                raise EmptyClassError(f"no validation scores for class {k}")
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
    total-stream interarrival and the per-class service times; omit them for
    the exponential defaults.
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
        if self.alpha_u is None:
            object.__setattr__(self, "alpha_u", 2.0 / self.Lambda ** 2)
        if self.alpha_v is None:
            object.__setattr__(
                self, "alpha_v", tuple(2.0 / m ** 2 for m in self.mu))
        if self.alpha_u <= 0 or len(self.alpha_v) != 2 or min(self.alpha_v) <= 0:
            raise ConfigError("second moments must be positive")


@dataclass(frozen=True)
class McParams:
    """Monte Carlo controls for the reviewer RBM (shared across grid points
    so threshold comparisons ride on common random numbers)."""

    n_paths: int = 2000
    n_steps: int = 400
    seed: int = 0
    horizon: float = 1.0


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
    coefficients per predicted class.  Arrays of thresholds give arrays of
    their shape, with trailing class axes on p_mix, c_mix (one) and q (two).
    """

    z_fl: float
    z_tx: float
    gamma: float
    lam_r: float
    pass_prob: float
    p_mix: np.ndarray
    q: np.ndarray
    c_mix: np.ndarray


def _design(z_fl, z_tx, config: TriageConfig, mc: Optional[McParams] = None,
            passing: bool = False) -> tuple:
    """(ReviewerParams, {term: array}) at arrays of thresholds: one np.interp
    per curve, then one elementwise formula per term, the reviewer's queue
    cost only given mc; NaN where no reviewer is staffed, or if passing is
    set an EmptyPassError, and a ConfigError where the staffing is below the
    passing share (terms["understaffed"]).  The reviewer's queue coefficient is
    the jstar_coeff of stiffness_coefficients, so an empty predicted label
    takes the one-class limit.
    """
    z_fl, z_tx = np.broadcast_arrays(np.asarray(z_fl, dtype=float), np.asarray(z_tx, dtype=float))
    g_fl, g_tx = np.stack([np.interp(np.stack([z_fl, z_tx]), config.curves.grid, v)
                           for v in config.curves.values], axis=-1)
    (g0, g1), (p0, p1), L = np.moveaxis(g_fl, -1, 0), config.p, config.Lambda
    mu, c = np.asarray(config.mu), np.asarray(config.delay_costs)
    weights = np.asarray(config.p) * g_fl
    pass_prob = weights.sum(axis=-1)
    gamma = L * (weights / mu).sum(axis=-1)
    terms = {"gamma": gamma,
             "filtering": L * (config.c_trp * p0 * (1.0 - g0) + config.c_trn * p1 * (1.0 - g1))}
    with np.errstate(divide="ignore", invalid="ignore"):
        p_mix = weights / pass_prob[..., None]
        # classes that never pass the filter contribute no arrivals; their
        # confusion row is unobservable and pinned to "predicted non-toxic"
        q_toxic = np.divide(g_tx, g_fl, out=np.zeros_like(g_fl), where=g_fl > 0)
        q, (q11, q21) = np.stack([q_toxic, 1.0 - q_toxic], axis=-1), np.moveaxis(q_toxic, -1, 0)
        terms["misclass"] = L * (p0 * g0 * (config.c_tp * q11 + config.c_fn * (1.0 - q11))
                                 + p1 * g1 * (config.c_fp * q21 + config.c_tn * (1.0 - q21)))
        lam_r = L * pass_prob / gamma
        mass = p_mix[..., None] * q                                   # p_k q_kl
        m, p_tilde = (mass * c[:, None]).sum(axis=-2), mass.sum(axis=-2)
        c_mix = np.divide(m, p_tilde, out=np.zeros_like(m), where=p_tilde > 0)
        # x * x: numpy takes x ** 2 by pow for scalars only, and no point may hang on its batch
        mean_work = (p_mix * (1.0 / mu)).sum(axis=-1)
        c_v = (p_mix * np.asarray(config.alpha_v)).sum(axis=-1) - mean_work * mean_work
        c_u = config.alpha_u - 1.0 / L ** 2
        q_split = pass_prob / gamma
        # staffed below its passing share, Gamma < pass_prob, a filtering level
        # would route each arrival to one reviewer with probability q > 1
        terms["understaffed"] = (gamma > 0.0) & (q_split > 1.0)
        count_var_rate = q_split * q_split * L ** 3 * max(c_u, 0.0) + L * q_split * (1.0 - q_split)
        terms["variance"] = lam_r * np.maximum(c_v, 0.0) + mean_work * mean_work * count_var_rate
        coeff = stiffness_coefficients(lam_r, p_mix, mu, c, q)[2]
    if passing:
        _check_staffed(gamma <= 0.0, pass_prob, z_fl)
        _check_feasible(terms["understaffed"], z_fl)
    if mc is not None:
        # mean int W^2 dt over unit-variance RBM paths: reflection commutes with
        # the sqrt(v) scaling, so one draw serves every threshold
        paths = bm_workload_paths(1.0, mc.n_steps, mc.horizon, mc.n_paths, mc.seed)
        base = float(paths.integral_sq().mean())
        terms["queue"] = coeff * 0.5 * terms["variance"] * base
    params = ReviewerParams(z_fl=z_fl[()], z_tx=z_tx[()], gamma=gamma[()], lam_r=lam_r[()],
                            pass_prob=pass_prob[()], p_mix=p_mix, q=q, c_mix=c_mix)
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


def staffing(z_fl, config: TriageConfig):
    """Gamma(z_fl) = Lambda sum_k p_k g_k(z_fl) / mu_k -- the real-valued
    reviewer count that keeps every reviewer exactly critically loaded."""
    return _design(*_check_thresholds((z_fl, z_fl)), config)[1]["gamma"][()]


def reviewer_params(z, config: TriageConfig) -> ReviewerParams:
    """Limiting per-reviewer primitives at thresholds z = (z_fl, z_tx)."""
    return _design(*_check_thresholds(z), config, passing=True)[0]


def filtering_cost_rate(z_fl, config: TriageConfig):
    """Cost rate of auto-resolving everything scoring below z_fl."""
    return _design(*_check_thresholds((z_fl, z_fl)), config)[1]["filtering"][()]


def misclass_cost_rate(z, config: TriageConfig):
    """Cost rate of reviewer label outcomes at threshold z_tx among passers."""
    return _design(*_check_thresholds(z), config)[1]["misclass"][()]


def reviewer_variance_rate(z_fl, config: TriageConfig):
    """Variance rate of one reviewer's workload diffusion.

    A reviewer receives each of the Lambda-stream arrivals independently with
    probability q = pass_prob / Gamma, so the arrival-count variance rate is
    q^2 Lambda^3 c_u + Lambda q (1 - q) (splitting noise included; for a
    Poisson stream this collapses to lam_r, the thinned-Poisson rate).  Work
    variance uses the passing mix at z_fl.
    """
    return _design(*_check_thresholds((z_fl, z_fl)), config, passing=True)[1]["variance"][()]


def reviewer_queue_cost(z, config: TriageConfig, mc: McParams = McParams()):
    """Expected integrated delay cost of one reviewer over [0, horizon].

    The coefficient is the optimal-split quadratic constant of the reviewer's
    two-class system (equal to beta_1 beta_2 / (beta_1 + beta_2)); the
    workload factor is a Monte Carlo mean of int W^2 over RBM paths with the
    per-reviewer variance rate.
    """
    return _design(*_check_thresholds(z), config, mc, passing=True)[1]["queue"][()]


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
    """(TriageDecision, mask of the points staffed below their passing share)."""
    params, terms = _design(z_fl, z_tx, config, mc)
    # where everything is auto-resolved: no reviewers, no labels, no queues
    passes = np.asarray(params.pass_prob) > 0.0
    _check_staffed(passes & (terms["gamma"] <= 0.0), np.asarray(params.pass_prob), z_fl)
    gamma = np.where(passes, terms["gamma"], 0.0)
    queueing = np.where(passes, gamma * terms["queue"], 0.0)
    return TriageDecision(
        z_fl=z_fl[()], z_tx=z_tx[()], gamma=gamma[()], filtering=terms["filtering"][()],
        hiring=(config.c_r * gamma)[()],
        misclassification=np.where(passes, terms["misclass"], 0.0)[()],
        queueing=queueing[()]), terms["understaffed"]


def evaluate_grid(config: TriageConfig, z_tx, zfl_grid,
                  mc: McParams = McParams()) -> tuple:
    """total_cost at every feasible (z_fl, z_tx) pair, as one array pass
    with common random numbers: (decisions, skipped).

    z_tx may be a scalar or a grid; pairs with z_tx < z_fl are skipped, and
    so are filtering levels staffed below their passing share (q > 1);
    skipped counts them as "z_tx_below_z_fl" and "gamma_below_pass_share".
    Raises EmptyGridError if no pair is left.  Decisions are ordered by
    (z_fl, z_tx).
    """
    axes = (np.sort(np.atleast_1d(np.asarray(g, dtype=float)), kind="stable")
            for g in (zfl_grid, z_tx))
    z_fl, z_tx = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    feasible, kept = ~(z_tx < z_fl), []
    if feasible.any():
        d, understaffed = _decisions(*_check_thresholds((z_fl[feasible], z_tx[feasible])),
                                     config, mc)
        points = zip(*(v.tolist() for v in vars(d).values()))
        kept = [TriageDecision(*p) for p, bad in zip(points, understaffed.tolist()) if not bad]
    if not kept:
        raise EmptyGridError("no feasible (z_fl, z_tx) pair on the grids")
    return kept, {"z_tx_below_z_fl": int(np.count_nonzero(~feasible)),
                  "gamma_below_pass_share": int(np.count_nonzero(understaffed))}


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def curves_from_json(doc: dict) -> PassingCurves:
    """Curve spec: {"kind": "gaussian_logit", "loc": [.,.], "scale": [.,.]}
    or {"kind": "grid", "z": [...], "g_toxic": [...], "g_nontoxic": [...]}."""
    kind = doc.get("kind")
    if kind == "gaussian_logit":
        return PassingCurves.from_gaussian_logit(
            doc["loc"], doc["scale"], grid_size=doc.get("grid_size", 1001))
    if kind == "grid":
        return PassingCurves.from_grid(doc["z"], doc["g_toxic"], doc["g_nontoxic"])
    raise ConfigError(f"unknown curve kind {kind!r}")


def triage_config_from_json(doc: dict) -> TriageConfig:
    try:
        return TriageConfig(
            Lambda=float(doc["Lambda"]),
            p=tuple(float(x) for x in doc["p"]),
            mu=tuple(float(x) for x in doc["mu"]),
            curves=curves_from_json(doc["curves"]),
            c_trp=float(doc["c_trp"]),
            c_trn=float(doc["c_trn"]),
            c_fp=float(doc["c_fp"]),
            c_fn=float(doc["c_fn"]),
            c_tp=float(doc["c_tp"]),
            c_tn=float(doc["c_tn"]),
            c_r=float(doc["c_r"]),
            delay_costs=tuple(float(x) for x in doc["delay_costs"]),
            alpha_u=(None if doc.get("alpha_u") is None else float(doc["alpha_u"])),
            alpha_v=(None if doc.get("alpha_v") is None
                     else tuple(float(x) for x in doc["alpha_v"])),
        )
    except KeyError as exc:
        raise ConfigError(f"triage config missing field {exc.args[0]!r}")
    except (AttributeError, TypeError, ValueError) as exc:  # e.g. "curves" not an object
        raise ConfigError(f"malformed triage config: {exc}") from exc


def load_triage_config(path) -> TriageConfig:
    return triage_config_from_json(load_json(path))
