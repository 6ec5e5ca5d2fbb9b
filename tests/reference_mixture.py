"""Reference mixture cost: the per-label oracle `cost_terms` is checked against.

`MixtureCost` is the posterior-weighted cost of one predicted class that
pqsched used to ship in `pqsched.model`, copied unchanged.  It prices label l
at C~_l(t) = sum_k w_kl C_k(t), counts cost k as present when w_kl > 0, and
gives `common_power` and `coeff` when every present cost shares one power.
`pqsched.model.cost_terms` now groups the same marginal costs by exponent for
every label at once, and the KKT split and the index policies read its table.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from pqsched.errors import ConfigError
from pqsched.model import CostFn


class MixtureCost:
    """Posterior-weighted delay cost of one predicted class.

    C~(t) = sum_k w_k C_k(t) and C~'(t) = sum_k w_k C_k'(t).  When every
    component shares one power, the mixture is itself a monomial: that power
    is .common_power and c~ = sum_k w_k c_k is .coeff, which give kkt_solve
    its closed-form split; otherwise both are None.
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
