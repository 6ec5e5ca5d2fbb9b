"""Reference quadratic-cost coefficients: the oracle the stacked kernel is checked against.

This is the per-config `quadratic_coefficients` pqsched used to ship, copied
unchanged: it derives the predicted-class primitives of one `SystemConfig`
(`derive_predicted_params`) and takes each label's mixture cost from
`MixtureCost`, so it shares no algebra with
`pqsched.httheory.stiffness_coefficients`.  Like the old code, it raises
`ZeroColumnError` when a predicted label is empty.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from pqsched.errors import NonQuadraticError
from pqsched.httheory import QuadraticCostCoefficients
from pqsched.model import (
    PredictedClassParams,
    SystemConfig,
    derive_predicted_params,
)
from reference_mixture import MixtureCost


def quadratic_coefficients(config: SystemConfig,
                           params: Optional[PredictedClassParams] = None,
                           ) -> QuadraticCostCoefficients:
    if not config.all_quadratic():
        raise NonQuadraticError("coefficient formulas require power-2 costs")
    if params is None:
        params = derive_predicted_params(config)
    c_mix = [MixtureCost(params.mix_weights[:, l], config.costs).coeff
             for l in range(len(params.rho_tilde))]
    beta = params.mu_tilde * np.array(c_mix) / params.rho_tilde
    beta_naive = params.mu_tilde * np.array([fn.coeff for fn in config.costs]) / params.rho_tilde
    inv = 1.0 / beta
    jstar_coeff = 1.0 / float(inv.sum())
    s = (1.0 / beta_naive)
    s = s / s.sum()
    jnaive_coeff = float((beta * s ** 2).sum())
    return QuadraticCostCoefficients(beta=beta, beta_naive=beta_naive,
                                     jstar_coeff=jstar_coeff,
                                     jnaive_coeff=jnaive_coeff)
