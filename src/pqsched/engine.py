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
`simulate_block` draws each seed's arrival stream once and runs every
policy on it.  It works one batch of consecutive seeds at a time, as one
set of columns: per seed it only reads the substreams (arrivals in chunks
of at most event_cap + 1 values -- exactly the values one-at-a-time draws
give) and runs the event loops; the class draws, the `Dist.draws`
transform of the service uniforms and event counts take one pass over the
batch.  Each value is an elementwise function of its own seed's uniforms,
so a path is a bit-stable function of (config, policy, seed) whatever
batch or block of seeds it is simulated in.

The policy only fills in the completion column.  Global FCFS serves in
arrival order without preemption, so a job completes at a_i + W_i, its
arrival plus the work it finds and brings.  The index policies run one flat
event loop over a table of `PolicyRef.index` values shared by a block's
seeds, grown by an entry where an arrival first takes a class's queue to a
length: an arrival raises only its own class's value, so it decides between
the served class and the arriving one, and only a completion rescans the
classes.  Replication (`cost.compare_policies`) prices a batch's columns and
builds no curves; `run_path` is a batch of one seed under one policy that
also derives them.
The total workload W_+ follows one Lindley recursion, `_lindley`: W_i =
max(0, W_{i-1} - (a_i - a_{i-1})) + s_i over arrivals, the remaining work of
any work-conserving policy, so it is the same for every policy and classifier
on a seed (a service schedule adds a jump, one more update, where it rescales
a job at its first start).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError, EventOverflowError, ScheduleNonPositiveError
from .model import SystemConfig, _check_finite, _check_seed, write_csv
from .policies import PolicyRef, index_overflow

__all__ = [
    "Curves",
    "PathResult",
    "RateSchedule",
    "run_path",
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
    checks every evaluation.  Multipliers must stay strictly positive, and
    the bound finite and positive.
    """

    multiplier: Callable[[float], float]
    max_multiplier: float

    def __post_init__(self):
        if not 0.0 < self.max_multiplier < _INF:  # NaN included
            raise ConfigError(f"max_multiplier {self.max_multiplier} must be finite and > 0")

    def __call__(self, t: float) -> float:
        m = self.multiplier(t)
        if not m > 0.0:  # NaN included
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
        _check_finite({"amplitude_frac": amplitude_frac, "omega": omega,
                       "floor_frac": floor_frac})
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
    return EventOverflowError(f"more than {event_cap} events before the horizon {horizon}; "
                              "lower rho or lambda * horizon (event_cap is an argument of "
                              "run_path and simulate_block)")


def _substreams(seed: int, rng: Generator):
    """The path's four substreams in order, read through rng, a Generator on
    a Philox bit generator: Philox(key=seed).jumped(i) for i = 0
    (interarrivals), 1 (true classes), 2 (services), 3 (labels).

    Each is read to the end before the next starts, so one bit generator
    serves every seed and substream: each starts from the state
    Philox(key=seed) has, with the counter word a jump advances set to i.
    """
    _check_seed(seed)
    key = np.array([seed & (2 ** 64 - 1), seed >> 64], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, dtype=np.uint64),
                                                  "key": key},
             "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    for i in range(4):
        state["state"]["counter"][2] = i
        rng.bit_generator.state = state
        yield rng


def _uniform_gaps(rng: Generator, chunk: int, dist, rate: float):
    """The substream's uniforms one by one, drawn chunk by chunk, each with
    the gap dist.draws maps it to at rate."""
    while True:
        u = rng.random(chunk)
        yield from zip(u.tolist(), dist.draws(u, rate).tolist())


def _arrival_times(config: SystemConfig, rng: Generator,
                   schedule: Optional[RateSchedule], event_cap: int) -> np.ndarray:
    """Arrival epochs up to the horizon, drawn chunk by chunk; raises once
    there are more than event_cap of them, so memory stays bounded."""
    horizon, lam = config.horizon, config.lam
    m_max = 1.0 if schedule is None else schedule.max_multiplier
    chunk = max(1, int(min(event_cap + 1, _CHUNK, 1.1 * lam * m_max * horizon + 20)))
    if schedule is not None:
        # Poisson thinning at the bounding rate; one or two uniforms per
        # candidate: the gap of the first, the raw value of the second
        draw = _uniform_gaps(rng, chunk, config.arrival_dist, lam * m_max).__next__
        times, t = [], 0.0
        while True:
            t += draw()[1]
            if t > horizon:  # the schedule's bound holds on [0, horizon] only
                return np.array(times)
            m = schedule(t)
            # acceptance is certain at the bound: don't burn a thinning draw
            if m >= m_max or draw()[0] * m_max <= m:
                times.append(t)
                if len(times) > event_cap:
                    raise _overflow(event_cap, horizon)
    dist, parts, n, t = config.arrival_dist, [], 0, 0.0
    while True:
        gaps = dist.draws(dist.uniforms(rng, chunk), lam)
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


def _per_seed(mask: np.ndarray, bounds: list) -> np.ndarray:
    """How many of each seed's jobs, [lo, hi) between consecutive bounds, the
    mask holds."""
    return np.diff(np.concatenate(([0], np.cumsum(mask)))[bounds])


def _lindley(gaps: np.ndarray, added: np.ndarray) -> np.ndarray:
    """W after each update of the Lindley recursion W = max(0, W - gap) +
    added, from W = 0; an infinite gap empties the system."""
    out, w = [], 0.0
    for g, dw in zip(gaps.tolist(), added.tolist()):
        w = (w - g if w > g else 0.0) + dw  # w > g exactly where w - g > 0
        out.append(w)
    return np.array(out, dtype=float)


def _fcfs(a: np.ndarray, service: np.ndarray, bounds: list, horizon: float):
    """Global FCFS in closed form over a batch's arrival times and services:
    a job completes at a + W_+, the work it finds plus its own, each seed's
    first arrival finding none; completion (NaN while open) and remaining
    work at the horizon."""
    gaps = np.diff(a, prepend=0.0, append=_INF)  # a spare entry for trailing empty seeds
    gaps[bounds[:-1]] = _INF
    c = a + _lindley(gaps[:-1], service)
    return np.where(c <= horizon, c, np.nan), np.clip(c - horizon, 0.0, service), []


def _event_loop(tab: list, grow: Callable[[int, int], float], cls: list, at: list, rem: list,
                horizon: float, schedule: Optional[RateSchedule]):
    """p-FCFS over scheduling classes `cls` (0..len(tab)-1) of one seed's jobs
    arriving at `at` (with an _INF sentinel after the last), serving the
    nonempty class of largest index value tab[l][n] (a row per class, which
    grow(l, n) extends where an arrival first takes l to n), ties to the
    smallest class.

    vals[l] caches class l's value (-1.0 while empty).  An arrival to class c
    raises vals[c] only (the index does not decrease in n), so the class to
    serve is the current one or c; a completion rescans vals.
    rem starts as the services and ends as the remaining work at the horizon.
    Returns completion (NaN while open) and the workload jumps (arrivals so
    far, t, added work) made when a service schedule rescales a job at its
    first start.
    """
    n = len(rem)
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
            try:
                v = vals[c] = tab[c][m]
            except IndexError:
                v = vals[c] = grow(c, m)
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
    return completion, jumps


def _workload(grid: np.ndarray, a: np.ndarray, s: np.ndarray, jumps: list):
    """W_+ after each arrival and on the grid, by `_lindley` over the
    arrivals and, merged in after their arrivals, the jumps (arrivals so far,
    t, added work)."""
    t, added = a, s
    if jumps:
        pos, jt, jw = (np.array(v) for v in zip(*jumps))
        t, added = np.insert(a, pos, jt), np.insert(s, pos, jw)
    # W_+ drains at unit rate from its last update (0 at time 0)
    knot_t = np.concatenate(([0.0], t))
    knot_w = np.concatenate(([0.0], _lindley(np.diff(knot_t), added)))
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


def simulate_block(config: SystemConfig, policies: Sequence[PolicyRef], batches,
                   arrival_schedule: Optional[RateSchedule] = None,
                   service_schedule: Optional[RateSchedule] = None, event_cap: int = EVENT_CAP):
    """Yield, for each batch of seeds in `batches`, the batch as columns: the
    bounds of each seed's jobs, the draws (arrival times, true classes,
    services, labels) and each policy's (completion, remaining, workload
    jumps, events per seed).  The block's seeds share each policy's index
    table tab[l][m] = index(l, m) (tab[l][0] = -1.0: empty), grown to the
    longest queue of each class among them.  An arrival_schedule needs
    exponential interarrivals (Poisson thinning)."""
    if arrival_schedule is not None and config.arrival_dist.family != "exponential":
        raise ConfigError("arrival schedules require exponential interarrivals (thinning)")
    tabs = [[[-1.0] for _ in range(config.n_classes)] for _ in policies]
    for seeds in batches:  # a call per batch: no columns stay in this frame between yields
        yield _simulate_batch(config, policies, tabs, seeds, arrival_schedule, service_schedule,
                              event_cap)


def _simulate_batch(config, policies, tabs, seeds, arrival_schedule, service_schedule, event_cap):
    """One batch of `simulate_block`; its event loops grow `tabs`.

    Per seed only the substream reads and the event loops run; the draws and
    event counts take one pass over the batch's columns."""
    horizon, service_dist = config.horizon, config.service_dist
    a, u_class, u_service, u_label = [], [], [], []
    rng = Generator(Philox(0))  # re-keyed for each seed's substreams
    for seed in seeds:
        streams = _substreams(seed, rng)  # the policy-independent arrival stream
        a.append(_arrival_times(config, next(streams), arrival_schedule, event_cap))
        u_class.append(next(streams).random(len(a[-1])))
        u_service.append(service_dist.uniforms(next(streams), len(a[-1])))
        u_label.append(next(streams).random(len(a[-1])))
    bounds = np.concatenate(([0], np.cumsum([len(x) for x in a], dtype=np.int64)))
    a, u_class, u_service, u_label = (np.concatenate(x) if x else np.zeros(0)
                                      for x in (a, u_class, u_service, u_label))
    true_class = _categorical(np.cumsum(config.prevalences), u_class)
    service = service_dist.draws(u_service, config.service_rates[true_class])
    label = _categorical(np.cumsum(config.confusion.entries, axis=1)[true_class], u_label)
    del u_class, u_service, u_label

    ends, at = bounds.tolist(), a.tolist()
    runs = []
    for policy, tab in zip(policies, tabs):
        if policy.kind == "fcfs" and service_schedule is None:
            run = _fcfs(a, service, ends, horizon)
        else:
            # fcfs under a service schedule: one FIFO line, class 0
            sched = (np.zeros_like(label) if policy.kind == "fcfs"
                     else true_class if policy.uses_true_class else label)
            grow = partial(_grow, tab, config, policy)
            completion, remaining, jumps = np.empty(len(a)), np.empty(len(a)), []
            for lo, hi in zip(ends, ends[1:]):
                rem = service[lo:hi].tolist()
                completion[lo:hi], js = _event_loop(tab, grow, sched[lo:hi].tolist(),
                                                    at[lo:hi] + [_INF], rem, horizon,
                                                    service_schedule)
                remaining[lo:hi] = rem
                jumps += [(lo + i, t, w) for i, t, w in js]
            run = completion, remaining, jumps
        events = np.diff(bounds) + _per_seed(~np.isnan(run[0]), ends)
        if np.any(events > event_cap):
            raise _overflow(event_cap, horizon)
        runs.append((*run, events))
    return bounds, (a, true_class, service, label), runs


def _grow(tab: list, config: SystemConfig, policy: PolicyRef, l: int, m: int) -> float:
    """Append policy.index(l, m) to class l's row of tab, which ends at m - 1,
    and return it; the ConfigError of index_overflow if it is not finite or
    a Python float power overflows."""
    with np.errstate(all="ignore"):
        try:
            v = policy.index(l, m)
        except OverflowError:
            v = math.inf
    if not math.isfinite(v):
        raise ConfigError(index_overflow(config, policy.kind, l, m))
    tab[l].append(v)
    return v


def run_path(config: SystemConfig, policy, seed: int, sampling_grid: int = 51, *,
             arrival_schedule: Optional[RateSchedule] = None,
             service_schedule: Optional[RateSchedule] = None,
             event_cap: int = EVENT_CAP) -> PathResult:
    """Simulate [0, horizon] under one policy and seed -- a batch of one
    seed that also builds the curves; fully deterministic.

    The policy re-evaluates at arrivals and completions only; queue-length
    indices are constant between events, so no decision could change anywhere
    else.  The policy may be a PolicyRef or one of {"oracle","naive","pcmu","fcfs"}.
    Raises EventOverflowError if the path has more than event_cap arrivals and
    completions up to the horizon.
    """
    if sampling_grid < 2:
        raise ConfigError("sampling_grid must be >= 2")
    if isinstance(policy, str):
        policy = PolicyRef.for_config(policy, config)
    k_classes, horizon = config.n_classes, config.horizon
    (_, (a, true_class, service, label), [(completion, remaining, jumps, (events,))]), = \
        simulate_block(config, [policy], [[seed]], arrival_schedule, service_schedule, event_cap)
    grid = np.linspace(0.0, horizon, sampling_grid)
    work, workload = _workload(grid, a, service, jumps)
    composition = _composition(grid, k_classes, a, true_class, label, completion)
    curves = Curves(grid, composition.sum(axis=1), workload, composition)
    return PathResult(a, true_class, label, service, completion, remaining, work, curves, seed,
                      int(events), horizon, k_classes, policy.kind)


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
