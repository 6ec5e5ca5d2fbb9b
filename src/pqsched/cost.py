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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import PathResult, run_paths
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


@dataclass(frozen=True)
class CostCurve:
    """Cumulative cost J(t) on an increasing grid; J(0)=0, nondecreasing."""

    grid: np.ndarray
    values: np.ndarray
    charging_rule: str


def _job_costs(path: PathResult, config: SystemConfig, rule: str) -> np.ndarray:
    if rule not in _RULES:
        raise ConfigError(f"unknown charging rule {rule!r}; expected one of {_RULES}")
    done = path.done
    charged = done if rule == COMPLETED_ONLY else np.ones_like(done)
    sojourn = np.where(done, path.completion, path.horizon) - path.arrival_times
    out = np.zeros(len(sojourn))
    for k, cost in enumerate(config.costs):
        rows = charged & (path.true_class == k)
        out[rows] = cost(sojourn[rows])
    return out


def path_cost(path: PathResult, config: SystemConfig,
              rule: str = TRUNCATE_AT_HORIZON,
              grid: Optional[np.ndarray] = None) -> CostCurve:
    """Cumulative true-class cost of one path, charged at arrival epochs."""
    if grid is None:
        grid = path.curves.grid
    grid = np.asarray(grid, dtype=float)
    per_job = _job_costs(path, config, rule)
    # jobs are stored in arrival order, so a cumulative sum indexed by
    # arrival-count gives J at any time
    cum = np.concatenate([[0.0], np.cumsum(per_job)])
    idx = np.searchsorted(path.arrival_times, grid, side="right")
    return CostCurve(grid=grid, values=cum[idx], charging_rule=rule)


def terminal_cost(path: PathResult, config: SystemConfig,
                  rule: str = TRUNCATE_AT_HORIZON) -> float:
    """J(horizon): every job charged, open ones per the rule."""
    return float(_job_costs(path, config, rule).sum())


@dataclass
class ReplicationSummary:
    """Cross-replication mean/uncertainty of the cumulative cost curve.

    terminal_costs holds J(horizon) per path (aligned with the seed schedule)
    so callers can form paired contrasts across policies run on the same
    seeds, and event_counts each path's arrivals plus completions.
    ratio_to_oracle is filled by compare_policies when an oracle run shares
    the seeds.
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
    ratio_to_oracle: Optional[np.ndarray] = None

    @property
    def terminal_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def terminal_stderr(self) -> float:
        return float(self.stderr[-1])


def _one_seed(args):
    """Cost curves on eval_times and event counts of each policy on one seed."""
    config, policies, seed, rule, eval_times = args
    paths = run_paths(config, policies, seed, sampling_grid=2)
    return [(path_cost(p, config, rule, grid=eval_times).values, p.event_count) for p in paths]


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
    once) on seeds base_seed..base_seed+n_paths-1.  A task is one seed with
    every policy, so each seed's arrival stream is drawn once.  Results are
    aggregated in seed order whether or not a worker pool is used, so the
    summaries are independent of scheduling.
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

    tasks = [(config, policies, base_seed + i, rule, eval_times) for i in range(n_paths)]
    workers = resolve_n_jobs(n_jobs)
    if workers > 1:
        chunk = max(1, n_paths // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            seeds = list(pool.map(_one_seed, tasks, chunksize=chunk))
    else:
        seeds = [_one_seed(t) for t in tasks]

    summaries = []
    for j, policy in enumerate(policies):
        values = np.vstack([runs[j][0] for runs in seeds])  # row i = seed base_seed+i
        summaries.append(ReplicationSummary(
            policy_kind=policy.kind, n_paths=n_paths, base_seed=base_seed, charging_rule=rule,
            grid=eval_times, mean=values.mean(axis=0),
            stderr=values.std(axis=0, ddof=1) / np.sqrt(n_paths),
            terminal_costs=values[:, -1].copy(),
            event_counts=np.array([runs[j][1] for runs in seeds])))
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
