"""Core domain types and predicted-class parameter derivation.

The scheduler in this toolkit never sees a job's true class k, only a
predicted class l emitted by a classifier with confusion matrix
Q = (q_kl), q_kl = P[predicted l | true k].  Everything downstream
(policies, heavy-traffic analytics) runs on the *predicted-class*
primitives derived here from the true-class ones:

    p~_l  = sum_k p_k q_kl                    arrival share of label l
    lam~_l = lam * p~_l                       arrival rate of label l
    1/mu~_l = sum_k (p_k q_kl / p~_l) / mu_k  mean service of a label-l job
    rho~_l = lam~_l / mu~_l                   label-l traffic intensity
    w_kl  = p_k q_kl / p~_l                   P[true k | predicted l]

and the mixture delay cost of a label-l job, C~_l(t) = sum_k w_kl C_k(t).

Delay costs are monomials C(t) = (coeff/power) t^power with power >= 2, so the
marginal cost C'(t) = coeff * t^(power-1) is strictly increasing and invertible
in closed form; power=2 is the usual (1/2) c t^2.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, ZeroColumnError

__all__ = [
    "CostFn",
    "ConfusionMatrix",
    "Dist",
    "SystemConfig",
    "PredictedClassParams",
    "MixtureCost",
    "ValidationReport",
    "derive_predicted_params",
    "mixture_cost",
    "validate_config",
    "config_to_json",
    "config_from_json",
    "load_config",
    "save_config",
]

# |rho - 1| beyond this is flagged as "not really heavy traffic" (a warning,
# never an error: deliberately overloaded transients are legitimate configs).
HEAVY_TRAFFIC_BAND = 0.05
# Newton on a mixture's marginal cost stops after a step of at most this
# fraction of t, which leaves an error of order its square, below an ulp
_NEWTON_RTOL, _NEWTON_MAX_ITER = 2.0 ** -27, 100

_ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class CostFn:
    """Monomial delay cost C(t) = (coeff/power) * t**power.

    C'(t) = coeff * t**(power-1).  power >= 2 keeps C strictly convex with
    C(0) = C'(0) = 0, which the index policies and the workload-split solver
    rely on.
    """

    coeff: float
    power: float = 2.0

    def __call__(self, t):
        return (self.coeff / self.power) * np.power(t, self.power)

    def prime(self, t):
        return self.coeff * np.power(t, self.power - 1.0)

    def prime_inv(self, y):
        """Inverse of the marginal cost: t such that C'(t) = y."""
        return np.power(np.asarray(y, dtype=float) / self.coeff, 1.0 / (self.power - 1.0))

    @property
    def is_quadratic(self) -> bool:
        return self.power == 2.0


def _as_readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-stochastic K x K matrix; row k is the predicted-label law of true class k."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _as_readonly(self.entries))
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise ConfigError(f"confusion matrix must be square, got shape {self.entries.shape}")

    @classmethod
    def identity(cls, k: int) -> "ConfusionMatrix":
        return cls(np.eye(k))

    @property
    def n_classes(self) -> int:
        return self.entries.shape[0]

    def row(self, k: int) -> np.ndarray:
        return self.entries[k]

    def issues(self) -> list[str]:
        """Structural problems, as stable codes with detail (used by validate_config)."""
        out = []
        q = self.entries
        if not np.all((q >= 0) & (q <= 1)):  # NaN included
            out.append("EntryOutOfRange: confusion entries must lie in [0, 1]")
        bad = np.nonzero(np.abs(q.sum(axis=1) - 1.0) > _ROW_SUM_TOL)[0]
        for k in bad:
            out.append(f"RowNotStochastic: row {k} sums to {q[k].sum():.15g}")
        return out


@dataclass(frozen=True)
class Dist:
    """Law of a positive time with mean 1/rate.  parse reads the only tags:
    "exponential", "deterministic", or {"family": "lognormal", "sigma": s}
    (exp(-s^2/2 + s Z) / rate, Z standard normal).  The simulator draws with
    sample and the diffusion analytics use second_moment, so both read a
    config the same way."""

    family: str
    sigma: float = 0.0

    @classmethod
    def parse(cls, tag, what: str = "distribution") -> "Dist":
        if isinstance(tag, Dist):
            return tag
        if isinstance(tag, str) and tag in ("exponential", "deterministic"):
            return cls(tag)
        if isinstance(tag, dict) and tag.keys() == {"family", "sigma"}:
            s = tag["sigma"]
            if (tag["family"] == "lognormal" and isinstance(s, (int, float))
                    and not isinstance(s, bool) and 0.0 <= s < math.inf):
                return cls("lognormal", float(s))
        raise ConfigError(f'{what} {tag!r} is not "exponential", "deterministic" or {{"family": '
                          '"lognormal", "sigma": s} with s a finite number >= 0')

    def to_json(self):
        if self.family == "lognormal":
            return {"family": "lognormal", "sigma": self.sigma}
        return self.family

    def sample(self, rng, rate, n: int) -> np.ndarray:
        """n draws with mean 1/rate (a scalar, or one rate per draw), through the
        scalar math.log/math.exp so every value is bit-stable; none from rng
        for the deterministic family."""
        if self.family == "deterministic":
            return np.ones(n) / rate
        one_minus_u = 1.0 - rng.random(n)  # in (0, 1], making -log safe
        if self.family == "exponential":
            log = math.log
            return -np.array([log(v) for v in one_minus_u.tolist()]) / rate
        from scipy.special import ndtri  # here, so only lognormal draws load scipy
        # exp(m + s Z) has mean exp(m + s^2/2), so m = -s^2/2 gives mean 1
        x = -0.5 * self.sigma * self.sigma + self.sigma * ndtri(one_minus_u)
        exp = math.exp
        return np.array([exp(v) for v in x.tolist()]) / rate

    def second_moment(self, rate):
        """E[X^2] of a draw with mean 1/rate: 2/rate^2, 1/rate^2 or e^(s^2)/rate^2."""
        scale = {"exponential": 2.0, "deterministic": 1.0}.get(self.family)
        return (np.exp(self.sigma ** 2) if scale is None else scale) / rate ** 2


@dataclass(frozen=True)
class SystemConfig:
    """Prelimit description of one single-server multiclass system.

    lam       -- overall arrival rate (jobs per unit time)
    prevalences -- p_k, class mix of arrivals (sums to 1)
    service_rates -- mu_k > 0; mean service of a true-class-k job is 1/mu_k
    costs     -- per-class delay costs C_k
    confusion -- classifier confusion matrix Q
    horizon   -- simulated time window [0, horizon]
    arrival_dist / service_dist -- interarrival and service laws, stored as
        Dist: "exponential" (default), "deterministic", or {"family":
        "lognormal", "sigma": s}; any other tag is a ConfigError.  Rates
        always mean what they say: the mean interarrival time is 1/lam and
        the mean class-k service time is 1/mu_k under every family.
    """

    lam: float
    prevalences: np.ndarray
    service_rates: np.ndarray
    costs: tuple[CostFn, ...]
    confusion: ConfusionMatrix
    horizon: float = 1.0
    arrival_dist: Dist = "exponential"
    service_dist: Dist = "exponential"

    def __post_init__(self):
        object.__setattr__(self, "prevalences", _as_readonly(self.prevalences))
        object.__setattr__(self, "service_rates", _as_readonly(self.service_rates))
        object.__setattr__(self, "costs", tuple(self.costs))
        for name in ("arrival_dist", "service_dist"):
            object.__setattr__(self, name, Dist.parse(getattr(self, name), name))

    @property
    def n_classes(self) -> int:
        return len(self.prevalences)

    @property
    def class_arrival_rates(self) -> np.ndarray:
        """lam_k = lam * p_k."""
        return self.lam * self.prevalences

    @property
    def rho(self) -> float:
        """Traffic intensity lam * sum_k p_k / mu_k."""
        return float(self.lam * np.sum(self.prevalences / self.service_rates))

    def with_confusion(self, q) -> "SystemConfig":
        """Same system under a different classifier."""
        if not isinstance(q, ConfusionMatrix):
            q = ConfusionMatrix(np.asarray(q, dtype=float))
        return replace(self, confusion=q)

    def all_quadratic(self) -> bool:
        return all(c.is_quadratic for c in self.costs)


@dataclass(frozen=True)
class PredictedClassParams:
    """Per-predicted-class primitives; see module docstring for the formulas."""

    p_tilde: np.ndarray
    lambda_tilde: np.ndarray
    mu_tilde: np.ndarray
    rho_tilde: np.ndarray
    mix_weights: np.ndarray  # w[k, l] = P[true k | predicted l]

    def __post_init__(self):
        for name in ("p_tilde", "lambda_tilde", "mu_tilde", "rho_tilde", "mix_weights"):
            object.__setattr__(self, name, _as_readonly(getattr(self, name)))

    @property
    def n_classes(self) -> int:
        return len(self.p_tilde)


def derive_predicted_params(config: SystemConfig) -> PredictedClassParams:
    """Derive the predicted-class primitives from (lam, p, mu, Q).

    Raises ZeroColumnError if some predicted label has no arrival mass
    (sum_k p_k q_kl = 0), which would make its service law undefined.
    """
    q = config.confusion.entries
    p = config.prevalences
    mu = config.service_rates

    p_tilde = p @ q  # p~_l = sum_k p_k q_kl
    dead = np.nonzero(p_tilde <= 0.0)[0]
    if dead.size:
        raise ZeroColumnError(
            f"predicted class(es) {dead.tolist()} have zero arrival mass; "
            "every column l needs sum_k p_k q_kl > 0"
        )

    lambda_tilde = config.lam * p_tilde
    # rho~_l = sum_k lam p_k q_kl / mu_k, and mu~_l = lam~_l / rho~_l.
    rho_tilde = config.lam * ((p / mu) @ q)
    mu_tilde = lambda_tilde / rho_tilde
    mix_weights = (p[:, None] * q) / p_tilde[None, :]

    return PredictedClassParams(p_tilde=p_tilde, lambda_tilde=lambda_tilde, mu_tilde=mu_tilde,
                                rho_tilde=rho_tilde, mix_weights=mix_weights)


class MixtureCost:
    """Posterior-weighted delay cost of one predicted class.

    C~(t) = sum_k w_k C_k(t) and C~'(t) = sum_k w_k C_k'(t).  When every
    component shares the same power the mixture is itself a monomial with
    coefficient c~ = sum_k w_k c_k (exposed as .coeff), and the marginal cost
    inverts in closed form.  Otherwise prime_inv runs Newton on an array of
    levels y from min_k (y / (w_k c_k))^(1/(p_k-1)), above the root since each
    term alone reaches y; C~' is increasing and, for powers >= 2, convex, so
    the iterates fall monotonically onto the root.  A step leaving the known
    bracket is replaced by its midpoint, so any power > 1 converges.
    """

    def __init__(self, weights: Sequence[float], costs: Sequence[CostFn]):
        self.weights = np.asarray(weights, dtype=float)
        self.costs = tuple(costs)
        if len(self.weights) != len(self.costs):
            raise ConfigError("mixture weights and costs must align")
        powers = {c.power for c, w in zip(self.costs, self.weights) if w > 0}
        self.common_power = powers.pop() if len(powers) == 1 else None
        self.coeff = (None if self.common_power is None
                      else float(sum(w * c.coeff for c, w in zip(self.costs, self.weights))))

    def __call__(self, t):
        return sum(w * c(t) for c, w in zip(self.costs, self.weights) if w > 0)

    def prime(self, t):
        return sum(w * c.prime(t) for c, w in zip(self.costs, self.weights) if w > 0)

    def prime_inv(self, y, upper=None):
        """t with C~'(t) = y, elementwise; upper, if given, bounds t from above."""
        y = np.asarray(y, dtype=float)
        if self.common_power is not None:
            return np.power(y / self.coeff, 1.0 / (self.common_power - 1.0))
        # C~'(t) = t * sum_k a_k t^(q_k - 1) and C~''(t) = sum_k a_k q_k t^(q_k - 1)
        terms = [(w * c.coeff, c.power - 1.0) for c, w in zip(self.costs, self.weights) if w > 0]
        out = np.zeros(y.size)
        idx = np.flatnonzero(y.reshape(-1) > 0.0)
        level = y.reshape(-1)[idx]
        hi = np.min([np.power(level / a, 1.0 / q) for a, q in terms], axis=0)
        if upper is not None:
            hi = np.minimum(hi, np.asarray(upper, dtype=float).reshape(-1)[idx])
        lo, t = np.zeros(idx.size), hi
        for _ in range(_NEWTON_MAX_ITER):
            u = [np.power(t, q - 1.0) for _, q in terms]
            f = t * sum(a * uk for (a, _), uk in zip(terms, u)) - level
            hi, lo = np.where(f > 0.0, t, hi), np.where(f < 0.0, t, lo)
            step = t - f / sum(a * q * uk for (a, q), uk in zip(terms, u))
            newton = (step >= lo) & (step <= hi)
            step = np.where(newton, step, 0.5 * (lo + hi))
            out[idx] = step
            live = np.abs(step - t) > np.where(newton, _NEWTON_RTOL * t, 0.0)
            idx, level, lo, hi, t = idx[live], level[live], lo[live], hi[live], step[live]
            if idx.size == 0:
                break
        return out.reshape(y.shape)[()]


def mixture_cost(l: int, params: PredictedClassParams, costs: Sequence[CostFn]) -> MixtureCost:
    """The effective delay cost C~_l of predicted class l under posterior weights w_.l."""
    return MixtureCost(params.mix_weights[:, l], costs)


@dataclass
class ValidationReport:
    """Outcome of validate_config: coded errors/warnings plus headline numbers."""

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    rho: float = float("nan")

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_invalid(self):
        if self.errors:
            raise ConfigError("; ".join(self.errors))


def validate_config(config: SystemConfig) -> ValidationReport:
    """Check every type invariant; report, never raise.

    Error codes: RowNotStochastic, EntryOutOfRange, NonPositiveRate,
    PrevalenceNotNormalized, NegativePrevalence, ZeroColumn, BadCost,
    NonPositiveHorizon, ShapeMismatch.  |rho-1| > 0.05 is a warning
    (HeavyTrafficDeviation), since overloaded transients are legitimate.
    """
    rep = ValidationReport()
    k = config.n_classes

    if len(config.service_rates) != k or len(config.costs) != k or config.confusion.n_classes != k:
        rep.errors.append(
            f"ShapeMismatch: prevalences({k}), service_rates({len(config.service_rates)}), "
            f"costs({len(config.costs)}), confusion({config.confusion.n_classes}) disagree"
        )
        return rep

    if config.lam <= 0:
        rep.errors.append(f"NonPositiveRate: lambda = {config.lam}")
    if np.any(config.service_rates <= 0):
        rep.errors.append(f"NonPositiveRate: service_rates = {config.service_rates.tolist()}")
    if np.any(config.prevalences < 0):
        rep.errors.append("NegativePrevalence: prevalences must be >= 0")
    if abs(config.prevalences.sum() - 1.0) > _ROW_SUM_TOL:
        rep.errors.append(f"PrevalenceNotNormalized: sum = {config.prevalences.sum():.15g}")
    for i, c in enumerate(config.costs):
        if c.coeff <= 0:
            rep.errors.append(f"BadCost: class {i} coeff {c.coeff} (must be > 0)")
        if c.power < 2:
            rep.errors.append(f"BadCost: class {i} power {c.power} (must be >= 2)")
    rep.errors.extend(config.confusion.issues())

    if not rep.errors:
        p_tilde = config.prevalences @ config.confusion.entries
        dead = np.nonzero(p_tilde <= 0.0)[0]
        if dead.size:
            rep.errors.append(f"ZeroColumn: predicted class(es) {dead.tolist()} have zero mass")

    if config.horizon <= 0:
        rep.errors.append(f"NonPositiveHorizon: horizon = {config.horizon}")

    if all(config.service_rates > 0) and config.lam > 0:
        rep.rho = config.rho
        if abs(rep.rho - 1.0) > HEAVY_TRAFFIC_BAND:
            rep.warnings.append(
                f"HeavyTrafficDeviation: rho = {rep.rho:.6g}; diffusion formulas assume rho ~ 1"
            )
    return rep


# ---------------------------------------------------------------------------
# JSON round trip.  Field names are part of the external interface:
# lambda, prevalences, service_rates, costs[{coeff,power}], confusion
# (row-major), horizon, arrival_dist, service_dist.
# ---------------------------------------------------------------------------

def config_to_json(config: SystemConfig) -> dict:
    return {
        "lambda": config.lam,
        "prevalences": config.prevalences.tolist(),
        "service_rates": config.service_rates.tolist(),
        "costs": [{"coeff": c.coeff, "power": c.power} for c in config.costs],
        "confusion": config.confusion.entries.tolist(),
        "horizon": config.horizon,
        "arrival_dist": config.arrival_dist.to_json(),
        "service_dist": config.service_dist.to_json(),
    }


def config_from_json(doc: dict) -> SystemConfig:
    """Build a SystemConfig from its JSON document and validate it."""
    try:
        config = SystemConfig(
            lam=float(doc["lambda"]),
            prevalences=np.asarray(doc["prevalences"], dtype=float),
            service_rates=np.asarray(doc["service_rates"], dtype=float),
            costs=tuple(CostFn(float(c["coeff"]), float(c.get("power", 2.0))) for c in doc["costs"]),
            confusion=ConfusionMatrix(np.asarray(doc["confusion"], dtype=float)),
            horizon=float(doc.get("horizon", 1.0)),
            arrival_dist=doc.get("arrival_dist", "exponential"),
            service_dist=doc.get("service_dist", "exponential"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    validate_config(config).raise_if_invalid()
    return config


def save_config(config: SystemConfig, path):
    write_json(path, config_to_json(config))


def write_csv(path, header, rows):
    """Write a header row and then rows as UTF-8 CSV with \\n line ends."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc):
    """Write doc as JSON with sorted keys, two-space indents and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path):
    """Parse a JSON file; malformed JSON becomes a ConfigError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> SystemConfig:
    return config_from_json(load_json(path))
