"""Index policies: map observable queue state to the class to serve next.

All three index rules share the same shape -- serve the nonempty class with
the largest marginal-delay-cost rate per unit of service capacity -- and
differ only in what they know:

  oracle  mu_k  * C_k'(N_k / lam_k)        true classes visible
  naive   mu~_l * C_l'(N~_l / lam~_l)      predicted classes, label cost taken
                                           at face value
  pcmu    mu~_l * C~_l'(N~_l / lam~_l)     predicted classes, posterior-mixture
                                           cost C~_l = sum_k w_kl C_k

A common positive prefactor does not change an argmax, so none is applied.
Ties go to the smallest class index, and only nonempty classes compete, which
makes every index policy work-conserving by construction.  A global-FCFS
baseline (serve the oldest job in the system, no preemption) is included as a
sanity anchor.

`PolicyRef.for_config` resolves a kind to one function index(l, n).  The
engine caches each class's value and, since the index does not decrease in n,
decides at an arrival by comparing the arriving class with the served one;
only a completion rescans the classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .model import SystemConfig, cost_terms, derive_predicted_params, non_finite

__all__ = [
    "POLICY_KINDS",
    "PolicyRef",
]

POLICY_KINDS = ("oracle", "naive", "pcmu", "fcfs")


@dataclass(frozen=True)
class _PowerIndex:
    """coeffs[l] * n**power: the index of a common-power system."""

    coeffs: tuple
    power: float

    def at(self, l: int, n: float) -> float:
        return self.coeffs[l] * n ** self.power if n > 0 else 0.0


@dataclass(frozen=True)
class _PrimeIndex:
    """mu[l] * sum_k w_kl C_k'(n / lam[l]), terms[l] the pairs (w_kl, C_k) with
    w_kl > 0: the index of a mixed-power system."""

    mu: np.ndarray
    terms: tuple
    lam: np.ndarray

    def at(self, l: int, n: float) -> float:
        t = n / self.lam[l]
        return float(self.mu[l] * sum(w * c.prime(t) for w, c in self.terms[l])) if n > 0 else 0.0


def _fifo_index(l, n):
    """fcfs's index: 0 for every queue, one FIFO line."""
    return 0.0


@dataclass(frozen=True)
class PolicyRef:
    """A policy kind with its index resolved: index(l, n) is the index value
    of scheduling class l holding n jobs (0 for n <= 0), the closed form
    A_l * n**(p-1) when all the relevant costs share one power p, else
    mu_l * C_l'(n / lam_l); fcfs's is 0, one FIFO line.  It is module-level
    or a bound method of a module-level class.
    """

    kind: str
    index: Callable[[int, float], float]

    @property
    def uses_true_class(self) -> bool:
        return self.kind == "oracle"

    @classmethod
    def for_config(cls, kind: str, config: SystemConfig) -> "PolicyRef":
        """Resolve `kind` on `config` alone: naive and pcmu derive the
        predicted-class primitives from it, and class l is priced at C~_l =
        sum_k w_kl C_k, w from _rates_and_weights.  The engine needs an index
        that does not decrease in n, which a config's costs give:
        SystemConfig refuses a coeff <= 0 or a power < 2."""
        if kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
        if kind == "fcfs":
            return cls(kind, _fifo_index)
        lam, mu, w = _rates_and_weights(config, kind)
        e, s = cost_terms(config.costs, w)
        if len(e) == 1:
            # index(l, n) = mu_l c~_l (n / lam_l)^e = A_l n^e, by scalar pows; an A_l
            # past the float range is refused where the engine tabulates it
            p = float(e[0])
            with np.errstate(all="ignore"):
                a = tuple(float(mu[l] * s[0, l] / lam[l] ** p) for l in range(config.n_classes))
            return cls(kind, _PowerIndex(a, p).at)
        terms = tuple(tuple((w[k, l], c) for k, c in enumerate(config.costs) if w[k, l] > 0)
                      for l in range(config.n_classes))
        return cls(kind, _PrimeIndex(mu, terms, lam).at)


def _rates_and_weights(config: SystemConfig, kind: str) -> tuple:
    """(lam, mu, w) of an index kind: its classes' arrival and service rates, true
    for oracle and predicted otherwise, and the weight w[k, l] of cost k in class
    l, pcmu's posterior weights and the identity otherwise."""
    if kind == "oracle":
        return config.class_arrival_rates, config.service_rates, np.eye(config.n_classes)
    params = derive_predicted_params(config)
    w = params.mix_weights if kind == "pcmu" else np.eye(config.n_classes)
    return params.lambda_tilde, params.mu_tilde, w


def index_overflow(config: SystemConfig, kind: str, l: int, n: int) -> str:
    """The NonFinite text of an index kind whose value for class l at n jobs
    leaves the float range.  That value is mu_l sum_k w_kl C_k'(n / lam_l),
    w the identity but for pcmu's posterior weights; the text names the cost
    k of the largest term."""
    lam, _, w = _rates_and_weights(config, kind)
    with np.errstate(all="ignore"):
        terms = [w[k, l] * c.prime(n / lam[l]) if w[k, l] > 0 else -np.inf
                 for k, c in enumerate(config.costs)]
    k = int(np.argmax(terms))
    c = config.costs[k]
    return non_finite(f"costs[{k}]", {"coeff": c.coeff, "power": c.power},
                      f"the {kind} index of class {l} overflows the float range at queue length {n}")
