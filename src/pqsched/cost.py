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

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .engine import PathResult, run_path
from .errors import ConfigError
from .model import SystemConfig
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
    seeds.  ratio_to_oracle is filled by compare_policies when an oracle run
    shares the seeds.
    """

    policy_kind: str
    n_paths: int
    base_seed: int
    charging_rule: str
    grid: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    terminal_costs: np.ndarray
    ratio_to_oracle: Optional[np.ndarray] = None

    @property
    def terminal_mean(self) -> float:
        return float(self.mean[-1])

    @property
    def terminal_stderr(self) -> float:
        return float(self.stderr[-1])


def _one_replication(args):
    config, policy, seed, rule, eval_times, sampling_grid = args
    path = run_path(config, policy, seed, sampling_grid=sampling_grid)
    curve = path_cost(path, config, rule, grid=eval_times)
    return curve.values


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


def replicate(config: SystemConfig, policy, n_paths: int, base_seed: int,
              rule: str = TRUNCATE_AT_HORIZON,
              eval_times: Optional[Sequence[float]] = None,
              sampling_grid: int = 2,
              n_jobs: Optional[int] = None) -> ReplicationSummary:
    """Run n_paths independent paths on seeds base_seed..base_seed+n_paths-1.

    Results are aggregated in seed order whether or not a worker pool is used,
    so the summary is independent of scheduling.  A policy kind is resolved
    to its PolicyRef once, and every path (and worker) shares it.
    """
    if n_paths < 2:
        raise ConfigError("replicate needs n_paths >= 2 for a standard error")
    if not isinstance(policy, PolicyRef):
        policy = PolicyRef.for_config(str(policy), config)
    if eval_times is None:
        eval_times = np.linspace(0.0, config.horizon, 11)
    eval_times = np.asarray(eval_times, dtype=float)

    tasks = [(config, policy, base_seed + i, rule, eval_times, sampling_grid)
             for i in range(n_paths)]
    workers = resolve_n_jobs(n_jobs)
    if workers > 1:
        chunk = max(1, n_paths // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_one_replication, tasks, chunksize=chunk))
    else:
        rows = [_one_replication(t) for t in tasks]

    values = np.vstack(rows)  # (n_paths, n_times), row i = seed base_seed+i
    mean = values.mean(axis=0)
    stderr = values.std(axis=0, ddof=1) / np.sqrt(n_paths)
    return ReplicationSummary(policy_kind=policy.kind, n_paths=n_paths, base_seed=base_seed,
                              charging_rule=rule, grid=eval_times, mean=mean, stderr=stderr,
                              terminal_costs=values[:, -1].copy())


def compare_policies(config: SystemConfig, kinds: Sequence[str], n_paths: int,
                     base_seed: int, rule: str = TRUNCATE_AT_HORIZON,
                     eval_times: Optional[Sequence[float]] = None,
                     n_jobs: Optional[int] = None) -> dict:
    """Replicate several policies on identical seeds; fill oracle ratios."""
    out = {}
    for kind in kinds:
        out[kind] = replicate(config, kind, n_paths, base_seed, rule,
                              eval_times=eval_times, n_jobs=n_jobs)
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "t", "mean_cost", "stderr", "ratio_to_oracle"])
        for s in summaries:
            ratios = s.ratio_to_oracle
            for i, t in enumerate(s.grid):
                ratio = ""
                if ratios is not None and np.isfinite(ratios[i]):
                    ratio = repr(float(ratios[i]))
                writer.writerow([s.policy_kind, repr(float(t)), repr(float(s.mean[i])),
                                 repr(float(s.stderr[i])), ratio])
