"""Cumulative queueing-cost accounting across paths and replications.

A path's cumulative cost charges each job C_k(sojourn) -- k its TRUE class --
at the job's *arrival* epoch: J(t) = sum over jobs arriving by t.  Jobs still
open at the horizon have no realized sojourn; two charging rules bracket them:

  completed_only      open jobs contribute nothing
  truncate_at_horizon open jobs contribute C_k(horizon - arrival)  (default)

Truncation keeps the curve monotone and avoids the survivorship bias of
dropping exactly the longest-delayed jobs; neither rule matches the idealized
arrival-measure integral exactly at the boundary, which charges full sojourns
that extend past the horizon.

`path_cost` prices one path; `compare_policies` replicates policies on the
deterministic seed schedule base_seed + i, so the policies it compares, or
two calls with the same base seed, are paired path-by-path on identical
arrival/service/classification draws (common random numbers).  J(horizon)
has one definition: a path's path_cost ends on the number, bit for bit, that
a replication of its seed holds in terminal_costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .engine import PathResult, simulate_block
from .errors import ConfigError
from .model import SystemConfig, _mean_stderr, write_csv
from .policies import PolicyRef

__all__ = [
    "COMPLETED_ONLY",
    "TRUNCATE_AT_HORIZON",
    "CostCurve",
    "ReplicationSummary",
    "path_cost",
    "compare_policies",
    "paired_gap",
    "export_summary_csv",
]

COMPLETED_ONLY = "completed_only"
TRUNCATE_AT_HORIZON = "truncate_at_horizon"
_RULES = (COMPLETED_ONLY, TRUNCATE_AT_HORIZON)

# Expected arrivals drawn, simulated and priced in one pass: bounds the
# memory a batch holds
_BATCH_JOBS = 1 << 11


@dataclass(frozen=True)
class CostCurve:
    """Cumulative cost J(t) on an increasing grid; J(0)=0, nondecreasing."""

    grid: np.ndarray
    values: np.ndarray
    charging_rule: str


def _charge(config: SystemConfig, rule: str, horizon: float, a, true_class, completion):
    """Per job of a path or a block of paths: the charge under the rule, the
    cost C_k(sojourn) truncated at the horizon, and whether it completed; one
    pass, with one scalar exponent for each distinct power."""
    if rule not in _RULES:
        raise ConfigError(f"unknown charging rule {rule!r}; expected one of {_RULES}")
    done = ~np.isnan(completion)
    sojourn = np.where(done, completion, horizon) - a
    power, scale = np.array([(c.power, c.coeff / c.power) for c in config.costs])[
        np.asarray(true_class, dtype=np.intp)].T
    cost = np.empty_like(sojourn)
    for p in {c.power for c in config.costs}:
        np.power(sojourn, p, out=cost, where=power == p)
    cost *= scale
    return (np.where(done, cost, 0.0) if rule == COMPLETED_ONLY else cost), cost, done


def _cumulative(charge: np.ndarray, a: np.ndarray, bounds, grid: np.ndarray) -> np.ndarray:
    """J on the grid, a row per path of jobs [lo, hi) between consecutive
    bounds: jobs are in arrival order, so J(t) is the running sum of a path's
    charges over its arrivals by t.  Each row sums in order from its own
    first charge, as the path's cumsum alone would; the arrival counts come
    from one search of (path, arrival time) pairs, which complex numbers
    order as pairs, real part first."""
    n = np.diff(bounds)
    path = np.repeat(np.arange(len(n)), n)
    sums = np.zeros((len(n), n.max(initial=0) + 1))  # J is 0 before the first arrival
    sums[path, np.arange(len(a)) - np.repeat(bounds[:-1], n) + 1] = charge
    np.cumsum(sums[:, 1:], axis=1, out=sums[:, 1:])
    arrived = np.searchsorted(path + a * 1j, np.arange(len(n))[:, None] + grid * 1j,
                              side="right") - np.asarray(bounds[:-1])[:, None]
    return np.take_along_axis(sums, arrived, axis=1)


def path_cost(path: PathResult, config: SystemConfig,
              rule: str = TRUNCATE_AT_HORIZON,
              grid: Optional[np.ndarray] = None) -> CostCurve:
    """Cumulative true-class cost of one path, charged at arrival epochs."""
    if grid is None:
        grid = path.curves.grid
    grid = np.asarray(grid, dtype=float)
    a = path.arrival_times
    charge = _charge(config, rule, path.horizon, a, path.true_class, path.completion)[0]
    return CostCurve(grid, _cumulative(charge, a, [0, len(a)], grid)[0], rule)


@dataclass(frozen=True)
class ReplicationSummary:
    """Cross-replication mean/uncertainty of the cumulative cost curve.

    terminal_costs holds J(horizon) per path (aligned with the seed schedule)
    so callers can form paired contrasts across policies run on the same
    seeds, event_counts each path's arrivals plus completions, open_jobs its
    jobs open at the horizon and open_costs their cost truncated there (under
    either rule).  ratio_to_oracle is mean over the oracle's mean (NaN where
    that is 0) when the oracle was compared on the same seeds, else None.
    """

    policy_kind: str
    n_paths: int
    base_seed: int
    charging_rule: str
    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    terminal_costs: np.ndarray
    event_counts: np.ndarray
    open_jobs: np.ndarray
    open_costs: np.ndarray
    ratio_to_oracle: Optional[np.ndarray] = None

    @property
    def terminal_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def terminal_stderr(self) -> float:
        return float(self.stderr[-1])

    @property
    def open_cost_share(self) -> float:
        """The open jobs' share of the cost truncated at the horizon, all paths."""
        open_cost = self.open_costs.sum()
        total = self.terminal_costs.sum() + open_cost * (self.charging_rule == COMPLETED_ONLY)
        return float(open_cost / total) if total > 0.0 else 0.0


def _price(config: SystemConfig, rule: str, eval_times: np.ndarray, batch) -> list:
    """Per policy, each seed's J on eval_times, events, open jobs and their
    cost for a simulated batch, every job of a policy priced in one pass."""
    bounds, (a, true_class, *_), runs = batch
    n = np.diff(bounds)
    seed_of = np.repeat(np.arange(len(n)), n)
    out = []
    for completion, _, _, events in runs:
        charge, cost, done = _charge(config, rule, config.horizon, a, true_class, completion)
        out.append((_cumulative(charge, a, bounds, eval_times), events, 2 * n - events,
                    np.bincount(seed_of[~done], cost[~done], minlength=len(n)).astype(float)))
    return out


def compare_policies(config: SystemConfig, kinds: Sequence[str], n_paths: int,
                     base_seed: int, rule: str = TRUNCATE_AT_HORIZON,
                     eval_times: Optional[Sequence[float]] = None) -> dict:
    """Replicate each policy (a kind or a PolicyRef, resolved once; a repeat
    runs once) on seeds base_seed..base_seed+n_paths-1, drawing each seed's
    arrival stream once for all of them: one ReplicationSummary per policy,
    with oracle ratios when the oracle is among them.

    The seeds share each policy's index table and run in batches of about
    _BATCH_JOBS expected arrivals, each drawn, simulated and priced as one set
    of columns; no seed's bits depend on its batch.
    """
    if n_paths < 2:
        raise ConfigError("compare_policies needs n_paths >= 2 for a standard error")
    kinds = list(dict.fromkeys(kinds))
    policies = [k if isinstance(k, PolicyRef) else PolicyRef.for_config(str(k), config)
                for k in kinds]
    if eval_times is None:
        eval_times = np.linspace(0.0, config.horizon, 11)
    eval_times = np.asarray(eval_times, dtype=float)
    if not (eval_times.ndim == 1 and eval_times.size and eval_times[0] >= 0.0
            and np.all(np.diff(eval_times) >= 0.0) and eval_times[-1] == config.horizon):
        raise ConfigError(f"eval_times must be nondecreasing in [0, horizon] and end at the "
                          f"horizon {config.horizon}")

    size = max(1, int(_BATCH_JOBS // (config.lam * config.horizon + 1.0)))
    seeds = range(base_seed, base_seed + n_paths)
    batches = simulate_block(config, policies, [seeds[i:i + size] for i in range(0, n_paths, size)])
    # map drops each batch once priced, before the next one is simulated
    priced = list(map(partial(_price, config, rule, eval_times), batches))

    # per policy: J on eval_times, events, open jobs, open costs; row i is seed base_seed+i
    rows = [[np.concatenate([b[j][f] for b in priced]) for f in range(4)]
            for j in range(len(policies))]
    stats = [_mean_stderr(values) for values, *_ in rows]
    base = next((mean for p, (mean, _) in zip(policies, stats) if p.kind == "oracle"), None)
    out = {}
    with np.errstate(divide="ignore", invalid="ignore"):
        for kind, policy, (values, events, open_jobs, open_costs), (mean, stderr) in zip(
                kinds, policies, rows, stats):
            out[kind] = ReplicationSummary(
                policy_kind=policy.kind, n_paths=n_paths, base_seed=base_seed,
                charging_rule=rule, grid=eval_times, mean=mean, stderr=stderr,
                terminal_costs=values[:, -1].copy(), event_counts=events, open_jobs=open_jobs,
                open_costs=open_costs,
                ratio_to_oracle=None if base is None else np.where(base > 0, mean / base, np.nan))
    return out


def paired_gap(a: ReplicationSummary, b: ReplicationSummary) -> tuple[float, float]:
    """Mean and standard error of J_a(T) - J_b(T) under common seeds."""
    if a.n_paths != b.n_paths or a.base_seed != b.base_seed:
        raise ConfigError("paired_gap requires summaries from identical seed schedules")
    mean, stderr = _mean_stderr(a.terminal_costs - b.terminal_costs)
    return float(mean), float(stderr)


def export_summary_csv(summaries: dict, path):
    """Rows (policy, t, mean_cost, stderr, ratio_to_oracle) for each summary
    of compare_policies; the ratio is blank where it is None or not finite."""
    write_csv(path, ["policy", "t", "mean_cost", "stderr", "ratio_to_oracle"],
              ([s.policy_kind, repr(float(t)), repr(float(s.mean[i])), repr(float(s.stderr[i])),
                repr(float(s.ratio_to_oracle[i]))
                if s.ratio_to_oracle is not None and np.isfinite(s.ratio_to_oracle[i]) else ""]
               for s in summaries.values() for i, t in enumerate(s.grid)))
