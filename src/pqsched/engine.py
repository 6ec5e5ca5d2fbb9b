"""Simulator of a single-server preemptive-resume queue, paths as columns.

The scheduler groups jobs by *scheduling class* -- predicted class for every
policy except the oracle, which sees true classes -- and serves FIFO within a
class (p-FCFS): preemption only ever happens across classes, and a preempted
job resumes where it left off.  Service requirements and delay costs are
governed by the job's *true* class throughout; the predicted label is sampled
from the confusion-matrix row of the true class, independently per job.

Randomness is split into four independent substreams of one counter-based
generator (Philox keyed by the path seed): interarrivals, true classes,
service requirements, classification.  None depends on the policy, so
`simulate_block` draws each seed's arrival stream once, as numpy columns,
and runs every policy on it.  Draws come in chunks of at most event_cap + 1
values -- exactly the values one-at-a-time draws give -- through
`Dist.sample` of the config's laws, so a path is a bit-stable function of
(config, policy, seed) whatever block of seeds it is simulated in.

The policy only fills in the completion column.  Global FCFS serves in
arrival order without preemption, so c_i = max(a_i, c_{i-1}) + s_i in one
pass.  The index policies run one flat event loop over a table of
`PolicyRef.index` values shared by a block's seeds: an arrival raises only
its own class's value, so it decides between the served class and the
arriving one, and only a completion rescans the classes.  Replication
prices a block's columns and builds no curves; `run_paths` is a block of
one seed that also derives them.  The total workload W_+ follows the Lindley
recursion W_i = max(0, W_{i-1} - (a_i - a_{i-1})) + s_i over arrivals, the
remaining work of any work-conserving policy, so one pass per seed serves
every policy and classifier (a service schedule adds a jump where it
rescales a job at its first start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError, EventOverflowError, ScheduleNonPositiveError
from .model import SystemConfig, write_csv
from .policies import PolicyRef

__all__ = [
    "Curves",
    "PathResult",
    "RateSchedule",
    "run_path",
    "run_paths",
    "simulate_block",
    "export_jobs_csv",
    "export_curves_csv",
]

_INF = float("inf")

# Largest number of uniforms drawn from a substream at once.
_CHUNK = 1 << 16

# Default bound on the arrivals and completions of one path.
EVENT_CAP = 5_000_000


@dataclass(frozen=True)
class RateSchedule:
    """Time-varying rate multiplier m(t) with a declared upper bound.

    The bound is what makes thinning-based arrival generation exact, so it
    must dominate the multiplier everywhere on [0, horizon]; the engine
    checks every evaluation.  Multipliers must stay strictly positive.
    """

    multiplier: Callable[[float], float]
    max_multiplier: float

    def __call__(self, t: float) -> float:
        m = self.multiplier(t)
        if m <= 0.0:
            raise ScheduleNonPositiveError(f"rate multiplier {m} at t={t} (must be > 0)")
        if m > self.max_multiplier * (1.0 + 1e-12):
            raise ConfigError(
                f"rate multiplier {m} at t={t} exceeds declared bound {self.max_multiplier}"
            )
        return m

    @classmethod
    def constant(cls, m: float) -> "RateSchedule":
        return cls(multiplier=lambda t: m, max_multiplier=m)

    @classmethod
    def sinusoidal(cls, amplitude_frac: float, omega: float, floor_frac: float = 0.5) -> "RateSchedule":
        """m(t) = max(floor_frac, 1 + amplitude_frac * sin(omega t)).

        With a base rate lam this reproduces rate(t) = max(lam*floor_frac,
        lam + r*sin(omega t)) for amplitude_frac = r/lam.
        """
        def m(t, a=amplitude_frac, w=omega, f=floor_frac):
            return max(f, 1.0 + a * math.sin(w * t))
        return cls(multiplier=m, max_multiplier=max(floor_frac, 1.0 + abs(amplitude_frac)))


@dataclass(frozen=True)
class Curves:
    """State sampled on an even time grid over [0, horizon]."""

    grid: np.ndarray          # (G,)
    queue_lengths: np.ndarray  # (G, K)   jobs present per predicted class
    workload: np.ndarray      # (G,)     total remaining work W_+(t)
    composition: np.ndarray   # (G, K, K) present jobs by (true, predicted)


@dataclass(frozen=True)
class PathResult:
    """One simulated sample path, stored as per-job columns in arrival order.

    completion is NaN for jobs still open at the horizon, and remaining is
    their unfinished work there (0 for completed jobs; a job whose service
    started under a service schedule carries its rescaled requirement).
    arrival_workloads[i] is W_+ immediately after the i-th arrival -- an
    event-aligned trace that is comparable across policies and classifiers
    because arrival epochs are shared under a common seed.
    """

    arrival_times: np.ndarray     # (n,) float, increasing
    true_class: np.ndarray        # (n,) int
    predicted_class: np.ndarray   # (n,) int
    service: np.ndarray           # (n,) drawn service requirement
    completion: np.ndarray        # (n,) float, NaN while open
    remaining: np.ndarray         # (n,) unfinished work at the horizon
    arrival_workloads: np.ndarray  # (n,)
    curves: Curves
    seed: int
    event_count: int
    horizon: float
    n_classes: int
    policy_kind: str

    @property
    def done(self) -> np.ndarray:
        """Mask of the jobs completed by the horizon."""
        return ~np.isnan(self.completion)


def _overflow(event_cap: int, horizon: float) -> EventOverflowError:
    return EventOverflowError(f"more than {event_cap} events before the horizon "
                              f"{horizon}; check rho or raise event_cap")


def _substreams(seed: int):
    """The path's four substreams in order: Philox(key=seed).jumped(i) for
    i = 0 (interarrivals), 1 (true classes), 2 (services), 3 (labels).

    Each is read to the end before the next starts, so one bit generator
    serves all four by setting the counter word a jump advances.
    """
    bits = Philox(key=seed)
    rng, state = Generator(bits), bits.state
    for i in range(4):
        state["state"]["counter"][2] = i
        bits.state = state
        yield rng


def _uniforms(rng: Generator, chunk: int):
    """The substream's uniforms one by one, drawn chunk by chunk."""
    while True:
        yield from rng.random(chunk).tolist()


def _arrival_times(config: SystemConfig, rng: Generator,
                   schedule: Optional[RateSchedule], event_cap: int) -> np.ndarray:
    """Arrival epochs up to the horizon, drawn chunk by chunk; raises once
    there are more than event_cap of them, so memory stays bounded."""
    horizon, lam = config.horizon, config.lam
    m_max = 1.0 if schedule is None else schedule.max_multiplier
    chunk = max(1, int(min(event_cap + 1, _CHUNK, 1.1 * lam * m_max * horizon + 20)))
    if schedule is not None:
        # Poisson thinning at the bounding rate; one or two uniforms per candidate
        lam_max = lam * m_max
        log, uniform, times, t = math.log, _uniforms(rng, chunk).__next__, [], 0.0
        while True:
            t = t - log(1.0 - uniform()) / lam_max
            if t > horizon:  # the schedule's bound holds on [0, horizon] only
                return np.array(times)
            m = schedule(t)
            # acceptance is certain at the bound: don't burn a thinning draw
            if m >= m_max or uniform() * m_max <= m:
                times.append(t)
                if len(times) > event_cap:
                    raise _overflow(event_cap, horizon)
    parts, n, t = [], 0, 0.0
    while True:
        gaps = config.arrival_dist.sample(rng, lam, chunk)
        ts = np.cumsum(np.concatenate(([t], gaps)))[1:]
        kept = int(np.searchsorted(ts, horizon, side="right"))
        n += kept
        if n > event_cap:
            raise _overflow(event_cap, horizon)
        parts.append(ts[:kept])
        if kept < chunk:
            return np.concatenate(parts)
        t = ts[-1]


def _categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws of classes 0..K-1 from the K cumulative sums cdf
    (one row, or one row per draw): how many of the first K - 1 sums are <= u.
    The last sum is left out, so a u at or above a last sum that rounding
    left below 1 still draws class K - 1."""
    return np.sum(cdf[..., :-1] <= u[:, None], axis=-1)


def _fcfs(a: np.ndarray, s: np.ndarray, horizon: float):
    """Global FCFS in closed form: completion (NaN while open) and remaining
    work at the horizon."""
    completion = []
    c = 0.0
    for ai, si in zip(a.tolist(), s.tolist()):
        c = (ai if ai > c else c) + si
        completion.append(c)
    c = np.array(completion)
    n_done = int(np.searchsorted(c, horizon, side="right"))  # c is nondecreasing
    remaining = s.copy()
    remaining[:n_done] = 0.0
    if n_done < len(c):
        remaining[n_done] = c[n_done] - horizon  # in service at the horizon
    c[n_done:] = np.nan
    return c, remaining, []


def _event_loop(tab: list, sched: np.ndarray, a: np.ndarray, s: np.ndarray,
                horizon: float, schedule: Optional[RateSchedule]):
    """p-FCFS over scheduling classes `sched` (0..len(tab)-1), serving the
    nonempty class of largest index value tab[l][n] (a row per class, long
    enough for all its jobs), ties to the smallest class.

    vals[l] caches class l's value (-1.0 while empty).  An arrival to class c
    raises vals[c] only (the index does not decrease in n), so the class to
    serve is the current one or c; a completion rescans vals.
    Returns completion (NaN while open), remaining work at the horizon, and
    the workload jumps (arrivals so far, t, added work) made when a service
    schedule rescales a job at its first start.
    """
    n = len(a)
    at = a.tolist() + [_INF]
    cls = sched.tolist()
    rem = s.tolist()
    completion = [math.nan] * n
    queues = [[] for _ in tab]
    heads = [0] * len(tab)
    counts = [0] * len(tab)
    vals = [-1.0] * len(tab)
    started = [False] * n
    jumps = []
    job, cur, end = -1, -1, _INF
    i, t_arr = 0, at[0]
    while True:
        if end <= t_arr:
            if end > horizon:
                break
            t = end
            completion[job] = t
            rem[job] = 0.0
            heads[cur] += 1
            m = counts[cur] = counts[cur] - 1
            vals[cur] = tab[cur][m]
            job, cur, end = -1, -1, _INF
            best = max(vals)
            if best <= -1.0:
                continue  # every class is empty: idle
            target = vals.index(best)
        else:
            t = t_arr
            c = cls[i]
            queues[c].append(i)
            m = counts[c] = counts[c] + 1
            v = vals[c] = tab[c][m]
            i += 1
            t_arr = at[i]
            if cur >= 0:
                u = vals[cur]
                if not (v > u or (v == u and c < cur)):
                    continue  # the same head keeps the server
            target = c
        if job >= 0:
            rem[job] = end - t  # preempt; resume later
        job, cur = queues[target][heads[target]], target
        if schedule is not None and not started[job]:
            started[job] = True
            scaled = rem[job] / schedule(t)
            jumps.append((i, t, scaled - rem[job]))
            rem[job] = scaled
        end = t + rem[job]
    if job >= 0:
        rem[job] = end - horizon  # unfinished work at the horizon
    return np.array(completion), np.array(rem), jumps


def _workload(grid: np.ndarray, a: np.ndarray, s: np.ndarray, jumps: list):
    """W_+ after each arrival and on the grid, by the Lindley recursion
    W = max(0, W - elapsed) + added over the arrivals and, merged in after
    their arrivals, the jumps (arrivals so far, t, added work)."""
    t, added = a, s
    if jumps:
        pos, jt, jw = (np.array(v) for v in zip(*jumps))
        t, added = np.insert(a, pos, jt), np.insert(s, pos, jw)
    knot_w, w, prev = [0.0], 0.0, 0.0
    for ti, dw in zip(t.tolist(), added.tolist()):
        x = w - (ti - prev)
        w = (x if x > 0.0 else 0.0) + dw
        prev = ti
        knot_w.append(w)
    # W_+ drains at unit rate from its last update (0 at time 0)
    knot_t, knot_w = np.concatenate(([0.0], t)), np.array(knot_w)
    j = np.searchsorted(knot_t, grid, side="right") - 1
    x = knot_w[j] - (grid - knot_t[j])
    work = np.delete(knot_w[1:], pos + np.arange(len(pos))) if jumps else knot_w[1:]
    return work, np.where(x > 0.0, x, 0.0)


def _composition(grid: np.ndarray, k_classes: int, a, true_class, label,
                 completion) -> np.ndarray:
    """Present jobs by (true, predicted) class at each grid time: the state
    after every event at or before it."""
    g = len(grid)
    # a job is present from the first grid time >= its arrival to the first
    # grid time >= its completion; count it per (true, predicted) cell
    cells = k_classes * k_classes
    code = true_class * k_classes + label
    enter = np.searchsorted(grid, a, side="left") * cells + code
    leave = np.searchsorted(grid, np.where(np.isnan(completion), _INF, completion),
                            side="left") * cells + code
    size = (g + 1) * cells
    delta = np.bincount(enter, minlength=size) - np.bincount(leave, minlength=size)
    return np.cumsum(delta.reshape(g + 1, cells)[:g], axis=0).reshape(g, k_classes, k_classes)


def simulate_block(config: SystemConfig, policies: Sequence[PolicyRef], seeds,
                   arrival_schedule: Optional[RateSchedule] = None,
                   service_schedule: Optional[RateSchedule] = None, event_cap: int = EVENT_CAP):
    """Yield each seed's draws (arrival times, true classes, services, labels)
    and each policy's (completion, remaining, workload jumps, events).  The
    seeds share each policy's index table tab[l][m] = index(l, m) (tab[l][0]
    = -1.0: empty), grown to the largest class size among them."""
    tabs = [[[-1.0] for _ in range(config.n_classes)] for _ in policies]
    for seed in seeds:  # a call per seed: no columns stay in this frame between yields
        yield _simulate_seed(config, policies, tabs, seed, arrival_schedule, service_schedule,
                             event_cap)


def _simulate_seed(config, policies, tabs, seed, arrival_schedule, service_schedule, event_cap):
    """One seed of `simulate_block`; grows `tabs` to the seed's class sizes."""
    k_classes, horizon = config.n_classes, config.horizon
    streams = _substreams(seed)  # the policy-independent arrival stream
    a = _arrival_times(config, next(streams), arrival_schedule, event_cap)
    n = len(a)
    true_class = _categorical(np.cumsum(config.prevalences), next(streams).random(n))
    service = config.service_dist.sample(next(streams), config.service_rates[true_class], n)
    label_cdf = np.cumsum(config.confusion.entries, axis=1)
    label = _categorical(label_cdf[true_class], next(streams).random(n))
    runs = []
    for policy, tab in zip(policies, tabs):
        if policy.kind == "fcfs" and service_schedule is None:
            run = _fcfs(a, service, horizon)
        elif policy.kind == "fcfs":  # under a service schedule: one FIFO line
            run = _event_loop([[-1.0] + [0.0] * n], np.zeros(n, dtype=np.int64), a,
                              service, horizon, service_schedule)
        else:
            sched = true_class if policy.uses_true_class else label
            for l, n_l in enumerate(np.bincount(sched, minlength=k_classes).tolist()):
                tab[l].extend(policy.index(l, m) for m in range(len(tab[l]), n_l + 1))
            run = _event_loop(tab, sched, a, service, horizon, service_schedule)
        events = n + int(np.count_nonzero(~np.isnan(run[0])))
        if events > event_cap:
            raise _overflow(event_cap, horizon)
        runs.append((*run, events))
    return (a, true_class, service, label), runs


def run_paths(config: SystemConfig, policies: Sequence, seed: int, sampling_grid: int = 51,
              *, arrival_schedule: Optional[RateSchedule] = None,
              service_schedule: Optional[RateSchedule] = None,
              event_cap: int = EVENT_CAP) -> list:
    """Simulate [0, horizon] under each policy on the seed's one arrival
    stream -- a block of one seed that also builds the curves; one
    PathResult per policy, each fully deterministic.

    The policies re-evaluate at arrivals and completions only; queue-length
    indices are constant between events, so no decision could change anywhere
    else.  A policy may be a PolicyRef or one of {"oracle","naive","pcmu","fcfs"}.
    Raises EventOverflowError if a path has more than event_cap arrivals and
    completions up to the horizon.
    """
    if sampling_grid < 2:
        raise ConfigError("sampling_grid must be >= 2")
    policies = [PolicyRef.for_config(p, config) if isinstance(p, str) else p for p in policies]
    if arrival_schedule is not None and config.arrival_dist.family != "exponential":
        raise ConfigError("arrival schedules require exponential interarrivals (thinning)")

    k_classes = config.n_classes
    horizon = config.horizon
    ((a, true_class, service, label), runs), = simulate_block(
        config, policies, [seed], arrival_schedule, service_schedule, event_cap)
    grid = np.linspace(0.0, horizon, sampling_grid)
    shared = _workload(grid, a, service, []) if service_schedule is None else ()
    for column in (a, true_class, service, label, grid, *shared):  # every policy's path holds them
        column.setflags(write=False)
    results = []
    for policy, (completion, remaining, jumps, events) in zip(policies, runs):
        work, workload = shared or _workload(grid, a, service, jumps)  # shared: no jumps
        composition = _composition(grid, k_classes, a, true_class, label, completion)
        curves = Curves(grid, composition.sum(axis=1), workload, composition)
        results.append(PathResult(a, true_class, label, service, completion, remaining, work,
                                  curves, seed, events, horizon, k_classes, policy.kind))
    return results


def run_path(config: SystemConfig, policy, seed: int, sampling_grid: int = 51, *,
             arrival_schedule: Optional[RateSchedule] = None,
             service_schedule: Optional[RateSchedule] = None,
             event_cap: int = EVENT_CAP) -> PathResult:
    """`run_paths` for one policy."""
    return run_paths(config, [policy], seed, sampling_grid, arrival_schedule=arrival_schedule,
                     service_schedule=service_schedule, event_cap=event_cap)[0]


def export_jobs_csv(result: PathResult, path):
    """One row per job: id, arrival, true/predicted class, service, completion,
    sojourn; the last two are blank while the job is open."""
    columns = (result.arrival_times, result.true_class, result.predicted_class,
               result.service, result.completion)
    # c == c fails only while the job is open: c is NaN
    rows = ([i, repr(a), k, l, repr(s)] + ([repr(c), repr(c - a)] if c == c else ["", ""])
            for i, (a, k, l, s, c) in enumerate(zip(*(col.tolist() for col in columns))))
    write_csv(path, ["id", "arrival", "true_class", "predicted_class", "service", "completion",
                     "sojourn"], rows)


def export_curves_csv(result: PathResult, path):
    """Grid rows: t, N_1..N_K (predicted-class queue lengths), W_plus."""
    c = result.curves
    write_csv(path, ["t"] + [f"N_{l + 1}" for l in range(result.n_classes)] + ["W_plus"],
              ([repr(float(t))] + [int(v) for v in n] + [repr(float(w))]
               for t, n, w in zip(c.grid, c.queue_lengths, c.workload)))
