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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model import (
    PredictedClassParams,
    SystemConfig,
    derive_predicted_params,
    mixture_cost,
)

__all__ = [
    "POLICY_KINDS",
    "PolicyRef",
]

POLICY_KINDS = ("oracle", "naive", "pcmu", "fcfs")


@dataclass(frozen=True)
class PolicyRef:
    """A policy kind with its per-class parameters resolved.

    For the index kinds, `index_coeffs`/`index_power` hold the closed form
    index(l, n) = index_coeffs[l] * n**index_power available whenever all the
    relevant costs are monomials of one common power (always true for the
    all-quadratic systems this toolkit mostly runs); `primes` keeps the general
    per-class marginal-cost callables for mixed-power systems.
    """

    kind: str
    n_classes: int
    lam_eff: Optional[np.ndarray] = None
    mu_eff: Optional[np.ndarray] = None
    primes: tuple = ()
    index_coeffs: Optional[list] = None
    index_power: Optional[float] = None

    @property
    def uses_true_class(self) -> bool:
        return self.kind == "oracle"

    @property
    def preemptive(self) -> bool:
        return self.kind != "fcfs"

    @classmethod
    def for_config(cls, kind: str, config: SystemConfig,
                   params: Optional[PredictedClassParams] = None) -> "PolicyRef":
        if kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
        k = config.n_classes
        if kind == "fcfs":
            return cls(kind=kind, n_classes=k)

        if kind == "oracle":
            lam_eff = config.class_arrival_rates
            mu_eff = np.asarray(config.service_rates, dtype=float)
            primes = tuple(c.prime for c in config.costs)
            powers = {c.power for c in config.costs}
            coeffs = [c.coeff for c in config.costs]
        else:
            if params is None:
                params = derive_predicted_params(config)
            lam_eff = params.lambda_tilde
            mu_eff = params.mu_tilde
            if kind == "naive":
                primes = tuple(c.prime for c in config.costs)
                powers = {c.power for c in config.costs}
                coeffs = [c.coeff for c in config.costs]
            else:  # pcmu
                mixes = [mixture_cost(l, params, config.costs) for l in range(k)]
                primes = tuple(m.prime for m in mixes)
                powers = {m.common_power for m in mixes}
                coeffs = [m.coeff for m in mixes]

        if len(powers) == 1 and None not in powers:
            p = powers.pop()
            # index(l, n) = mu_l * c_l * (n / lam_l)^(p-1) = A_l * n^(p-1)
            a = [float(mu_eff[l] * coeffs[l] / lam_eff[l] ** (p - 1.0)) for l in range(k)]
            return cls(kind=kind, n_classes=k, lam_eff=lam_eff, mu_eff=mu_eff,
                       primes=primes, index_coeffs=a, index_power=p - 1.0)
        return cls(kind=kind, n_classes=k, lam_eff=lam_eff, mu_eff=mu_eff, primes=primes)

    def index(self, l: int, n: float) -> float:
        """Index value of scheduling class l holding n jobs."""
        if self.kind == "fcfs":
            raise ConfigError("fcfs has no per-class index")
        if n <= 0:
            return 0.0
        if self.index_coeffs is not None:
            return self.index_coeffs[l] * n ** self.index_power
        return float(self.mu_eff[l] * self.primes[l](n / self.lam_eff[l]))

    def decide_counts(self, counts) -> Optional[int]:
        """The class to serve given the queue length of each scheduling class:
        the index argmax over nonempty classes, ties to the smallest class,
        None (idle) if every class is empty."""
        best, best_val = None, -1.0
        coeffs, power = self.index_coeffs, self.index_power
        for l, n in enumerate(counts):
            if n > 0:
                v = coeffs[l] * n ** power if coeffs is not None else self.index(l, n)
                if v > best_val:
                    best, best_val = l, v
        return best
