"""Exception types shared across the toolkit.

Every error that a caller might want to catch selectively gets its own class;
they all descend from PqschedError so `except PqschedError` catches anything
raised deliberately by this package.
"""


class PqschedError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PqschedError):
    """A system configuration violates its invariants (SystemConfig's
    docstring lists their codes), or another input is malformed."""


class ZeroColumnError(ConfigError):
    """Some predicted class has zero arrival mass: sum_k p_k * q_kl = 0
    (the quadratic cost coefficients take the one-class limit instead)."""


class EventOverflowError(PqschedError):
    """A simulated path exceeded the event cap (likely a runaway rho >> 1)."""


class ScheduleNonPositiveError(PqschedError):
    """A rate schedule produced a multiplier <= 0."""


class NonQuadraticError(PqschedError):
    """An operation requiring all-quadratic delay costs got something else."""


class BracketFailureError(PqschedError):
    """The workload split missed its workload by more than KKT_TOL r, or did not converge."""


class NonFiniteMomentError(PqschedError):
    """A second moment needed for the diffusion variance is missing/non-finite."""


class EmptyPassError(PqschedError):
    """No arrival mass survives the filter: sum_k p_k * g_k(z_fl) = 0."""


class EmptyGridError(PqschedError):
    """A threshold search grid is empty after feasibility filtering."""


class EmptyClassError(PqschedError):
    """A class required by an estimator has no records."""


class IngestError(PqschedError):
    """A validation-data file could not be parsed; message cites the line."""
