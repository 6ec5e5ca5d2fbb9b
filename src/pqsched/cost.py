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

Replications use the deterministic seed schedule base_seed + i, so running
two policies with the same base seed pairs them path-by-path on identical
arrival/service/classification draws (common random numbers).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

import numpy as np

from .engine import PathResult, simulate_block
from .errors import ConfigError
from .model import SystemConfig, write_csv
from .policies import PolicyRef

__all__ = [
    "COMPLETED_ONLY",
    "TRUNCATE_AT_HORIZON",
    "CostCurve",
    "ReplicationSummary",
    "path_cost",
    "terminal_cost",
    "replicate",
    "compare_policies",
    "paired_gap",
    "export_summary_csv",
    "resolve_n_jobs",
]

COMPLETED_ONLY = "completed_only"
TRUNCATE_AT_HORIZON = "truncate_at_horizon"
_RULES = (COMPLETED_ONLY, TRUNCATE_AT_HORIZON)

# Expected arrivals priced in one pass: bounds the memory a block holds
_BATCH_JOBS = 1 << 13


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
    bounds: jobs are in arrival order, so J(t) sums the charges arrived by t."""
    return np.array([np.concatenate(([0.0], np.cumsum(charge[lo:hi])))[
        np.searchsorted(a[lo:hi], grid, side="right")] for lo, hi in zip(bounds, bounds[1:])])


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


def terminal_cost(path: PathResult, config: SystemConfig,
                  rule: str = TRUNCATE_AT_HORIZON) -> float:
    """J(horizon): every job charged, open ones per the rule; the same number,
    bit for bit, as path_cost's last value and replicate's terminal_costs."""
    return float(path_cost(path, config, rule, [path.horizon]).values[-1])


@dataclass
class ReplicationSummary:
    """Cross-replication mean/uncertainty of the cumulative cost curve.

    terminal_costs holds J(horizon) per path (aligned with the seed schedule)
    so callers can form paired contrasts across policies run on the same
    seeds, event_counts each path's arrivals plus completions, open_jobs its
    jobs open at the horizon and open_costs their cost truncated there (under
    either rule).  ratio_to_oracle is filled by compare_policies when an
    oracle run shares the seeds.
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


def _block(args):
    """Per policy, each seed's J on eval_times, events, open jobs and their
    cost.  The block's seeds share each policy's index table, and are priced
    in batches of about _BATCH_JOBS expected arrivals, one pass per batch."""
    config, policies, seeds, rule, eval_times = args
    paths = simulate_block(config, policies, seeds)
    size = max(1, int(_BATCH_JOBS // (config.lam * config.horizon + 1.0)))
    # each batch is dropped once priced, before the next one is simulated
    return [_price(config, rule, eval_times, list(islice(paths, size)))
            for _ in range(0, len(seeds), size)]


def _price(config: SystemConfig, rule: str, eval_times: np.ndarray, batch: list) -> list:
    """`_block`'s figures for a batch of simulated seeds, every job of a
    policy priced in one pass."""
    a, true_class, completion, events = zip(*(
        (a, k, [r[0] for r in runs], [r[3] for r in runs]) for (a, k, *_), runs in batch))
    n = np.array([len(x) for x in a])
    bounds, seed_of = np.concatenate(([0], np.cumsum(n))), np.repeat(np.arange(len(n)), n)
    a, true_class, events = np.concatenate(a), np.concatenate(true_class), np.array(events)
    out = []
    for j, counts in enumerate(events.T):
        charge, cost, done = _charge(config, rule, config.horizon, a, true_class,
                                     np.concatenate([c[j] for c in completion]))
        out.append((_cumulative(charge, a, bounds, eval_times), counts, 2 * n - counts,
                    np.bincount(seed_of[~done], cost[~done], minlength=len(n))))
    return out


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else PQSCHED_THREADS, else 1."""
    if n_jobs is not None:
        return max(1, int(n_jobs))
    env = os.environ.get("PQSCHED_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"PQSCHED_THREADS={env!r} is not an integer")
    return 1


def _replicate(config: SystemConfig, policies: list, n_paths: int, base_seed: int, rule: str,
               eval_times: Optional[Sequence[float]], n_jobs: Optional[int]) -> list:
    """One ReplicationSummary per policy (a kind or a PolicyRef, resolved
    once) on seeds base_seed..base_seed+n_paths-1.  A task is a block of
    seeds, one per worker, with every policy.  No seed's bits depend on its
    block and results are aggregated in seed order, so the summaries are
    independent of scheduling.
    """
    if n_paths < 2:
        raise ConfigError("replicate needs n_paths >= 2 for a standard error")
    policies = [p if isinstance(p, PolicyRef) else PolicyRef.for_config(str(p), config)
                for p in policies]
    if eval_times is None:
        eval_times = np.linspace(0.0, config.horizon, 11)
    eval_times = np.asarray(eval_times, dtype=float)
    if not (eval_times.ndim == 1 and eval_times.size and eval_times[0] >= 0.0
            and np.all(np.diff(eval_times) >= 0.0) and eval_times[-1] == config.horizon):
        raise ConfigError(f"eval_times must be nondecreasing in [0, horizon] and end at the "
                          f"horizon {config.horizon}")

    workers = resolve_n_jobs(n_jobs)
    size = -(-n_paths // workers)
    tasks = [(config, policies, range(base_seed + i, base_seed + min(i + size, n_paths)), rule,
              eval_times) for i in range(0, n_paths, size)]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # here, so one worker never loads it
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_block, tasks))
    else:
        blocks = [_block(t) for t in tasks]

    summaries = []
    for j, policy in enumerate(policies):
        values, events, open_jobs, open_costs = (  # row i = seed base_seed+i
            np.concatenate([b[j][f] for batches in blocks for b in batches]) for f in range(4))
        summaries.append(ReplicationSummary(
            policy_kind=policy.kind, n_paths=n_paths, base_seed=base_seed, charging_rule=rule,
            grid=eval_times, mean=values.mean(axis=0),
            stderr=values.std(axis=0, ddof=1) / np.sqrt(n_paths),
            terminal_costs=values[:, -1].copy(), event_counts=events,
            open_jobs=open_jobs, open_costs=open_costs))
    return summaries


def replicate(config: SystemConfig, policy, n_paths: int, base_seed: int,
              rule: str = TRUNCATE_AT_HORIZON,
              eval_times: Optional[Sequence[float]] = None,
              n_jobs: Optional[int] = None) -> ReplicationSummary:
    """Run n_paths independent paths on seeds base_seed..base_seed+n_paths-1."""
    return _replicate(config, [policy], n_paths, base_seed, rule, eval_times, n_jobs)[0]


def compare_policies(config: SystemConfig, kinds: Sequence[str], n_paths: int,
                     base_seed: int, rule: str = TRUNCATE_AT_HORIZON,
                     eval_times: Optional[Sequence[float]] = None,
                     n_jobs: Optional[int] = None) -> dict:
    """Replicate several policies on the same seeds, drawing each seed's
    arrival stream once for all of them; fill oracle ratios."""
    kinds = list(dict.fromkeys(kinds))
    out = dict(zip(kinds, _replicate(config, kinds, n_paths, base_seed, rule, eval_times, n_jobs)))
    if "oracle" in out:
        base = out["oracle"].mean
        with np.errstate(divide="ignore", invalid="ignore"):
            for summary in out.values():
                summary.ratio_to_oracle = np.where(base > 0, summary.mean / base, np.nan)
    return out


def paired_gap(a: ReplicationSummary, b: ReplicationSummary) -> tuple[float, float]:
    """Mean and standard error of J_a(T) - J_b(T) under common seeds."""
    if a.n_paths != b.n_paths or a.base_seed != b.base_seed:
        raise ConfigError("paired_gap requires summaries from identical seed schedules")
    diff = a.terminal_costs - b.terminal_costs
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(len(diff)))


def export_summary_csv(summaries, path):
    """Rows (policy, t, mean_cost, stderr, ratio_to_oracle) for each summary."""
    if isinstance(summaries, dict):
        summaries = list(summaries.values())
    write_csv(path, ["policy", "t", "mean_cost", "stderr", "ratio_to_oracle"],
              ([s.policy_kind, repr(float(t)), repr(float(s.mean[i])), repr(float(s.stderr[i])),
                repr(float(s.ratio_to_oracle[i]))
                if s.ratio_to_oracle is not None and np.isfinite(s.ratio_to_oracle[i]) else ""]
               for s in summaries for i, t in enumerate(s.grid)))
