"""Reference workload variance rate: the per-config scalar formula that
`pqsched.httheory.workload_variance_rate` computed before it became the
q = 1 call of the array kernel `pqsched.httheory.variance_rate`.

The body is copied unchanged.  It squares with Python's scalar `**` (C pow)
and sums with `@`, where the kernel takes `m * m` and sums over the last
axis, so the two can differ in the last bits: by one ulp on the README's
two-class system with lognormal(sigma = 0.5) services.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

import numpy as np

from pqsched.errors import ConfigError, NonFiniteMomentError
from pqsched.model import SystemConfig


def workload_variance_rate(config: SystemConfig) -> float:
    """Variance rate v of the limiting workload Brownian motion.

    With m = E[V] = sum_k p_k / mu_k, per-job work variance
    c_v = sum_k p_k alpha_v[k] - m^2 and interarrival variance
    c_u = alpha_u - 1/lambda^2, where alpha_u = E[U^2] and alpha_v[k] =
    E[V_k^2] are the second moments of the config's laws (Dist.second_moment,
    the laws Dist.draws maps uniforms to),

        v = lambda * c_v + lambda^3 * c_u * m^2.

    M/M/1 sanity check: lambda = mu gives v = 2 / lambda.
    """
    lam = config.lam
    p = config.prevalences
    alpha_u = float(config.arrival_dist.second_moment(lam))
    alpha_v = config.service_dist.second_moment(config.service_rates)
    if not (np.isfinite(alpha_u) and np.all(np.isfinite(alpha_v))):
        raise NonFiniteMomentError("second moments must be finite")
    mean_work = float(p @ (1.0 / config.service_rates))
    c_v = float(p @ alpha_v) - mean_work ** 2
    c_u = alpha_u - 1.0 / lam ** 2
    if c_v < -1e-12 or c_u < -1e-12:
        raise ConfigError("moments imply negative variance; check that the prevalences sum to 1")
    v = lam * max(c_v, 0.0) + lam ** 3 * max(c_u, 0.0) * mean_work ** 2
    if not np.isfinite(v):
        raise NonFiniteMomentError("variance rate overflowed")
    return float(v)
