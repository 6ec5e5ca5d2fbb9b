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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError, ZeroColumnError

__all__ = [
    "CostFn",
    "ConfusionMatrix",
    "Dist",
    "SystemConfig",
    "PredictedClassParams",
    "derive_predicted_params",
    "cost_terms",
    "config_to_json",
    "config_from_json",
    "load_config",
    "save_config",
]

# |rho - 1| beyond this is flagged as "not really heavy traffic" (a warning,
# never an error: deliberately overloaded transients are legitimate configs).
HEAVY_TRAFFIC_BAND = 0.05
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
        object.__setattr__(self, "entries", _square(self.entries))

    @classmethod
    def identity(cls, k: int) -> "ConfusionMatrix":
        return cls(np.eye(k))

    @property
    def n_classes(self) -> int:
        return self.entries.shape[0]

    def row(self, k: int) -> np.ndarray:
        return self.entries[k]

    def issues(self) -> list[str]:
        """Structural problems, as stable codes with detail: SystemConfig's
        constructor and select-model's candidate files refuse any."""
        q = self.entries
        out_of_range, bad_rows = _confusion_faults(q)
        out = ["EntryOutOfRange: confusion entries must lie in [0, 1]"] if out_of_range else []
        return out + [f"RowNotStochastic: row {k} sums to {q[k].sum():.15g}"
                      for k in np.flatnonzero(bad_rows)]


def _square(a) -> np.ndarray:
    """a as a read-only float array; ConfigError unless it is a square matrix."""
    q = _as_readonly(a)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise ConfigError(f"confusion matrix must be square, got shape {q.shape}")
    return q


def _confusion_faults(q) -> tuple:
    """(out_of_range, bad_rows) of confusion matrices q shaped (..., K, K):
    out_of_range[...] where some entry lies outside [0, 1] (NaN included),
    bad_rows[..., k] where row k does not sum to 1 within _ROW_SUM_TOL.  The
    rule of ConfusionMatrix.issues, on one matrix or a stack of them."""
    return (~np.all((q >= 0) & (q <= 1), axis=(-2, -1)),
            np.abs(q.sum(axis=-1) - 1.0) > _ROW_SUM_TOL)


@dataclass(frozen=True)
class Dist:
    """Law of a positive time with mean 1/rate.  parse reads the only tags:
    "exponential", "deterministic", or {"family": "lognormal", "sigma": s}
    (exp(-s^2/2 + s Z) / rate, Z standard normal).  The simulator reads
    uniforms and maps them through draws, and the diffusion analytics use
    second_moment, so both read a config the same way."""

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

    def uniforms(self, rng, n: int) -> np.ndarray:
        """The uniforms in [0, 1) of n draws: n values read from rng, or n
        zeros and none read for the deterministic family."""
        return np.zeros(n) if self.family == "deterministic" else rng.random(n)

    def draws(self, u: np.ndarray, rate) -> np.ndarray:
        """The draws of the uniforms u, with mean 1/rate (a scalar, or one rate
        per draw), through numpy's vector log and exp: a value depends on its
        uniform and rate only, bit for bit, whatever array, offset or length
        holds it, and equals the same steps on a Python float
        (test_model.py::test_draws_do_not_depend_on_the_array)."""
        if self.family == "deterministic":
            return np.ones(len(u)) / rate
        one_minus_u = 1.0 - u  # in (0, 1], making -log safe
        if self.family == "exponential":
            return -np.log(one_minus_u) / rate
        from scipy.special import ndtri  # here, so only lognormal draws load scipy
        # exp(m + s Z) has mean exp(m + s^2/2), so m = -s^2/2 gives mean 1
        return np.exp(-0.5 * self.sigma * self.sigma + self.sigma * ndtri(one_minus_u)) / rate

    def second_moment(self, rate):
        """E[X^2] of a draw with mean 1/rate: 2/rate^2, 1/rate^2 or e^(s^2)/rate^2,
        without a warning: inf where it overflows (a lognormal sigma near 27, or
        rate^2 underflowing), 0 where rate^2 does.  np.float64 takes a scalar's
        square by pow, as a Python float does, but never raises."""
        scale = {"exponential": 2.0, "deterministic": 1.0}.get(self.family)
        with np.errstate(over="ignore", divide="ignore"):
            return (np.exp(self.sigma ** 2) if scale is None else scale) / np.float64(rate) ** 2


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

    A config that exists is valid.  It has one class count K: prevalences and
    service_rates are 1-D of length K, there are K costs and confusion is K x K
    (an array is read as a ConfusionMatrix); the constructor refuses any other
    (ShapeMismatch).  It then refuses every broken rule at once, in one
    ConfigError of "; "-joined coded texts: NonFinite (a NaN or infinite
    lambda, prevalence, service rate, horizon, or cost coeff or power, a
    lambda whose cube overflows, or an arrival_dist or service_dist whose
    second moment overflows, such as a lognormal sigma near 27),
    NonPositiveRate, NegativePrevalence, PrevalenceNotNormalized, BadCost
    (coeff <= 0 or power < 2), EntryOutOfRange, RowNotStochastic and
    NonPositiveHorizon.  A label no job gets (a zero column) is allowed: the
    quadratic analytics price it at its one-class limit, and whatever needs
    its service law raises ZeroColumnError (derive_predicted_params).
    |rho - 1| > 0.05 is only a warning (HeavyTrafficDeviation), since
    overloaded transients are legitimate.
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
        if not isinstance(self.confusion, ConfusionMatrix):
            object.__setattr__(self, "confusion", ConfusionMatrix(self.confusion))
        for name in ("arrival_dist", "service_dist"):
            object.__setattr__(self, name, Dist.parse(getattr(self, name), name))
        counts = {name: len(a) if a.ndim == 1 else a.shape for name, a in
                  (("prevalences", self.prevalences), ("service_rates", self.service_rates))}
        counts |= {"costs": len(self.costs), "confusion": self.confusion.n_classes}
        if len(set(counts.values())) > 1:
            raise ConfigError(shape_mismatch(counts))
        numbers = {"lambda": self.lam, "prevalences": self.prevalences,
                   "service_rates": self.service_rates, "horizon": self.horizon}
        numbers |= {f"costs[{i}].{name}": getattr(c, name)
                    for i, c in enumerate(self.costs) for name in ("coeff", "power")}
        errors = [non_finite(name, value) for name, value in numbers.items()
                  if not np.all(np.isfinite(value))]
        if self.lam <= 0:
            errors.append(f"NonPositiveRate: lambda = {self.lam}")
        if np.any(self.service_rates <= 0):
            errors.append(f"NonPositiveRate: service_rates = {self.service_rates.tolist()}")
        if np.any(self.prevalences < 0):
            errors.append("NegativePrevalence: prevalences must be >= 0")
        if abs(self.prevalences.sum() - 1.0) > _ROW_SUM_TOL:
            errors.append(f"PrevalenceNotNormalized: sum = {self.prevalences.sum():.15g}")
        for i, c in enumerate(self.costs):
            if c.coeff <= 0:
                errors.append(f"BadCost: class {i} coeff {c.coeff} (must be > 0)")
            if c.power < 2:
                errors.append(f"BadCost: class {i} power {c.power} (must be >= 2)")
        errors += self.confusion.issues()
        if not errors:  # workload_variance_rate's arithmetic: these moments, and lambda ** 3
            for name, rate in (("arrival_dist", self.lam), ("service_dist", self.service_rates)):
                dist = getattr(self, name)
                if not np.all(np.isfinite(dist.second_moment(rate))):
                    errors.append(non_finite(name, dist.to_json(), "its second moment overflows"))
            errors += cube_overflow("lambda", self.lam)
        if self.horizon <= 0:
            errors.append(f"NonPositiveHorizon: horizon = {self.horizon}")
        if errors:
            raise ConfigError("; ".join(errors))

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

    @property
    def warnings(self) -> list:
        """[HeavyTrafficDeviation] when |rho - 1| > 0.05, else []."""
        rho = self.rho
        if abs(rho - 1.0) > HEAVY_TRAFFIC_BAND:
            return [f"HeavyTrafficDeviation: rho = {rho:.6g}; diffusion formulas assume rho ~ 1"]
        return []

    def with_confusion(self, q) -> "SystemConfig":
        """Same system under a different classifier."""
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
        raise ZeroColumnError(f"ZeroColumn: predicted class(es) {dead.tolist()} have zero "
                              "arrival mass (sum_k p_k q_kl = 0)")

    lambda_tilde = config.lam * p_tilde
    # rho~_l = sum_k lam p_k q_kl / mu_k, and mu~_l = lam~_l / rho~_l.
    rho_tilde = config.lam * ((p / mu) @ q)
    mu_tilde = lambda_tilde / rho_tilde
    mix_weights = (p[:, None] * q) / p_tilde[None, :]

    return PredictedClassParams(p_tilde=p_tilde, lambda_tilde=lambda_tilde, mu_tilde=mu_tilde,
                                rho_tilde=rho_tilde, mix_weights=mix_weights)


def cost_terms(costs: Sequence[CostFn], weights) -> tuple:
    """The mixture costs C~_l = sum_k w_kl C_k of the labels, w[k, l] the
    weights, grouped by exponent: C~_l'(t) = sum_i s[i, l] t^e[i].  e holds,
    ascending, the exponents power - 1 of the costs with some w_kl > 0, and
    s[i, l] sums c_k w_kl over the costs of exponent e[i] in k order.  One
    exponent (len(e) == 1) is a common power: C~_l is then the monomial of
    coefficient s[0, l] and power e[0] + 1."""
    w = np.asarray(weights, dtype=float)
    e_k = np.array([c.power - 1.0 for c in costs])
    cw = np.array([c.coeff for c in costs])[:, None] * w  # c_k w_kl
    e = np.unique(e_k[np.any(w > 0.0, axis=1)])
    return e, np.array([cw[e_k == x].sum(axis=0) for x in e])


def _mean_stderr(x: np.ndarray) -> tuple:
    """Mean and standard error (0 for one row) of x along axis 0, taken on
    x / 2**e, e the binary exponent of each column's largest |x|, and scaled
    back: a power of two moves no bit short of a subnormal, and squaring the
    deviations cannot overflow where the values do not.  A column holding an
    infinity has stderr inf, not the nan of its deviations' inf - inf."""
    peak = np.max(np.abs(x), axis=0)
    e = np.frexp(peak)[1]
    x, n = np.ldexp(x, -e), len(x)
    stderr = x.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(x[0])
    stderr = np.where(np.isinf(peak), np.inf, np.ldexp(stderr, e))[()]  # [()]: 0-d to scalar
    return np.ldexp(x.mean(axis=0), e), stderr


def shape_mismatch(counts: dict) -> str:
    """The text of a ShapeMismatch error: 'ShapeMismatch: <name>(<n>), ... disagree',
    each n a class count, or the shape of an array that gives none, as (2,2) or ()."""
    return "ShapeMismatch: " + ", ".join(
        name + (f"({n})" if isinstance(n, int) else str(n).replace(" ", ""))
        for name, n in counts.items()) + " disagree"


def non_finite(name: str, value, why: str = "must be finite") -> str:
    """The text of a NonFinite error: 'NonFinite: <name> = <value> (<why>)'."""
    return f"NonFinite: {name} = {np.asarray(value).tolist()} ({why})"


def _check_finite(numbers: dict, why: str = "must be finite"):
    """ConfigError naming every field of numbers that holds a NaN or an infinity."""
    bad = [non_finite(name, value, why) for name, value in numbers.items()
           if not np.all(np.isfinite(value))]
    if bad:
        raise ConfigError("; ".join(bad))


def _check_seed(seed: int):
    """ConfigError unless seed is a Philox key, an integer in [0, 2**128)."""
    if not 0 <= seed < 2 ** 128:
        raise ConfigError(f"seed {seed} is outside [0, 2**128)")


def cube_overflow(name: str, rate) -> list:
    """[its NonFinite error] if rate ** 3, the lambda^3 of the workload
    variance rate, leaves the float range (past 5.6e102, where a Python
    float's power raises), else []."""
    with np.errstate(over="ignore"):
        cube = np.float64(rate) ** 3
    return [] if np.isfinite(cube) else [
        non_finite(name, rate, "its cube, a term of the workload variance rate, overflows")]


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
    """Build a SystemConfig from its JSON document; a label no job gets (a
    zero column) is refused too, with derive_predicted_params' ZeroColumnError."""
    try:
        config = SystemConfig(
            lam=float(doc["lambda"]),
            prevalences=doc["prevalences"],
            service_rates=doc["service_rates"],
            costs=tuple(CostFn(float(c["coeff"]), float(c.get("power", 2.0))) for c in doc["costs"]),
            confusion=doc["confusion"],
            horizon=float(doc.get("horizon", 1.0)),
            arrival_dist=doc.get("arrival_dist", "exponential"),
            service_dist=doc.get("service_dist", "exponential"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config document: {exc}") from exc
    derive_predicted_params(config)
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
    """Parse a JSON file; malformed JSON, or an integer literal that no float
    holds, becomes a ConfigError naming the file."""
    def parse_int(literal: str) -> int:
        if math.isinf(float(literal)):   # rounded as float(int(literal)), with no digit limit
            raise ConfigError(f"{path}: integer {literal[:10]}... ({len(literal)} characters) "
                              "overflows the float range")
        return int(literal)

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=parse_int)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def load_config(path) -> SystemConfig:
    return config_from_json(load_json(path))
