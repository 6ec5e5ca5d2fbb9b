"""Reference event-by-event simulator: the oracle the columnar engine is checked against.

This is the scalar discrete-event loop pqsched used to ship, kept outside the
package so tests can compare `pqsched.run_path` against it bit for bit.  It
draws the same four Philox substreams one value at a time, keeps one `Job`
object per arrival and a live `QueueState`, and asks `decide` for the class
to serve after every arrival and completion, a full rescan of every class.
Its policy is `RefPolicy`, the `PolicyRef` pqsched used to ship, which keeps
`lam_eff`, `mu_eff` and the per-class marginal costs `primes` and computes
each index from them (or from the closed form of a common power), so the
index the package folds into one function is checked too.  Its result,
`RefPath`, carries the fields the old `PathResult` had (a list of mutable
jobs plus the curves), so each column of the new result can be compared with
the corresponding attribute of the jobs here.  `sample_classification` is
the label draw for a single job.  `pcmu_index`, `naive_gcmu_index` and
`oracle_gcmu_index` are the three index rules written out one class at a
time, as pqsched used to export them, to check the closed forms
`PolicyRef.for_config` resolves.
`OracleUnavailableError` is raised when the oracle policy asks a blind
`QueueState` for true-class counts.  `job_costs` is the per-class pricing
pqsched used to ship (one mask pass per class, each class's `CostFn` applied
to its jobs' sojourns), the oracle for the one-pass pricing in `cost`, and
`replication_oracle` rebuilds a replication's per-seed figures from
`pqsched.run_path` and `job_costs`, one seed and policy at a time.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random import Generator, Philox

import pqsched
from pqsched import (
    COMPLETED_ONLY,
    ConfigError,
    ConfusionMatrix,
    CostFn,
    Curves,
    EventOverflowError,
    PqschedError,
    PathResult,
    PredictedClassParams,
    RateSchedule,
    SystemConfig,
    TRUNCATE_AT_HORIZON,
    derive_predicted_params,
)
from pqsched.model import ndtri
from pqsched.policies import POLICY_KINDS
from reference_mixture import MixtureCost

_INF = float("inf")


class OracleUnavailableError(PqschedError):
    """A true-class-indexed policy was asked to run without true-class visibility."""


def pcmu_index(l: int, counts, params: PredictedClassParams, costs: Sequence[CostFn]) -> float:
    """mu~_l * C~_l'(N~_l / lam~_l) for predicted class l; counts are per predicted class."""
    n = counts[l]
    mix = MixtureCost(params.mix_weights[:, l], costs)
    return float(params.mu_tilde[l] * mix.prime(n / params.lambda_tilde[l]))


def naive_gcmu_index(l: int, counts, params: PredictedClassParams, costs: Sequence[CostFn]) -> float:
    """mu~_l * C_l'(N~_l / lam~_l): the label-l cost applied as if labels were truth."""
    n = counts[l]
    return float(params.mu_tilde[l] * costs[l].prime(n / params.lambda_tilde[l]))


def oracle_gcmu_index(k: int, counts, config: SystemConfig) -> float:
    """mu_k * C_k'(N_k / lam_k); counts are per true class."""
    n = counts[k]
    lam_k = config.lam * config.prevalences[k]
    return float(config.service_rates[k] * config.costs[k].prime(n / lam_k))


@dataclass(frozen=True)
class RefPolicy:
    """A policy kind with its per-class parameters resolved, as pqsched's
    `PolicyRef` used to hold them.

    For the index kinds, `index_coeffs`/`index_power` hold the closed form
    index(l, n) = index_coeffs[l] * n**index_power available whenever all the
    relevant costs are monomials of one common power; `primes` keeps the
    general per-class marginal-cost callables for mixed-power systems.
    """

    kind: str
    n_classes: int
    lam_eff: Optional[np.ndarray] = None
    mu_eff: Optional[np.ndarray] = None
    primes: tuple = ()
    index_coeffs: Optional[list] = None
    index_power: Optional[float] = None

    @property
    def uses_true_class(self) -> bool:
        return self.kind == "oracle"

    @property
    def preemptive(self) -> bool:
        return self.kind != "fcfs"

    @classmethod
    def for_config(cls, kind: str, config: SystemConfig,
                   params: Optional[PredictedClassParams] = None) -> "RefPolicy":
        if kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {kind!r}; expected one of {POLICY_KINDS}")
        k = config.n_classes
        if kind == "fcfs":
            return cls(kind=kind, n_classes=k)

        if kind == "oracle":
            lam_eff = config.class_arrival_rates
            mu_eff = np.asarray(config.service_rates, dtype=float)
            primes = tuple(c.prime for c in config.costs)
            powers = {c.power for c in config.costs}
            coeffs = [c.coeff for c in config.costs]
        else:
            if params is None:
                params = derive_predicted_params(config)
            lam_eff = params.lambda_tilde
            mu_eff = params.mu_tilde
            if kind == "naive":
                primes = tuple(c.prime for c in config.costs)
                powers = {c.power for c in config.costs}
                coeffs = [c.coeff for c in config.costs]
            else:  # pcmu
                mixes = [MixtureCost(params.mix_weights[:, l], config.costs) for l in range(k)]
                primes = tuple(m.prime for m in mixes)
                powers = {m.common_power for m in mixes}
                coeffs = [m.coeff for m in mixes]

        if len(powers) == 1 and None not in powers:
            p = powers.pop()
            # index(l, n) = mu_l * c_l * (n / lam_l)^(p-1) = A_l * n^(p-1)
            a = [float(mu_eff[l] * coeffs[l] / lam_eff[l] ** (p - 1.0)) for l in range(k)]
            return cls(kind=kind, n_classes=k, lam_eff=lam_eff, mu_eff=mu_eff,
                       primes=primes, index_coeffs=a, index_power=p - 1.0)
        return cls(kind=kind, n_classes=k, lam_eff=lam_eff, mu_eff=mu_eff, primes=primes)

    def index(self, l: int, n: float) -> float:
        """Index value of scheduling class l holding n jobs."""
        if self.kind == "fcfs":
            raise ConfigError("fcfs has no per-class index")
        if n <= 0:
            return 0.0
        if self.index_coeffs is not None:
            return self.index_coeffs[l] * n ** self.index_power
        return float(self.mu_eff[l] * self.primes[l](n / self.lam_eff[l]))


def decide_counts(index, counts) -> Optional[int]:
    """The class to serve given the queue length of each scheduling class:
    the argmax of index(l, n) over nonempty classes, ties to the smallest
    class, None (idle) if every class is empty."""
    best, best_val = None, -1.0
    for l, n in enumerate(counts):
        if n > 0:
            v = index(l, n)
            if v > best_val:
                best, best_val = l, v
    return best


# Substream indices within a path's Philox stream.
_SUB_ARRIVALS, _SUB_CLASSES, _SUB_SERVICES, _SUB_LABELS = 0, 1, 2, 3


class Job:
    """One job's record; `remaining` is only refreshed at preemption/horizon."""

    __slots__ = ("id", "arrival_time", "true_class", "predicted_class",
                 "service_req", "remaining", "completion_time", "started")

    def __init__(self, id, arrival_time, true_class, predicted_class, service_req):
        self.id = id
        self.arrival_time = arrival_time
        self.true_class = true_class
        self.predicted_class = predicted_class
        self.service_req = service_req
        self.remaining = service_req
        self.completion_time = None
        self.started = False


class QueueState:
    """Live state of the system, grouped by scheduling class.

    pred_counts is always available (it is what the non-oracle policies see);
    true_counts is gated behind the oracle-visibility flag so that a policy
    asking for true classes against a blinded run fails loudly.
    """

    __slots__ = ("clock", "queues", "pred_counts", "_true_counts", "comp",
                 "oracle_visible", "n_classes")

    def __init__(self, n_classes: int, oracle_visible: bool = False):
        self.clock = 0.0
        self.n_classes = n_classes
        self.queues = [deque() for _ in range(n_classes)]
        self.pred_counts = [0] * n_classes
        self._true_counts = [0] * n_classes
        self.comp = [[0] * n_classes for _ in range(n_classes)]  # comp[k][l]
        self.oracle_visible = oracle_visible

    @property
    def true_counts(self):
        if not self.oracle_visible:
            raise OracleUnavailableError(
                "true-class queue lengths requested from a run without oracle visibility"
            )
        return self._true_counts

    def head_arrivals(self):
        """Arrival time of the oldest job per scheduling class (inf if empty)."""
        return [q[0].arrival_time if q else _INF for q in self.queues]


def sample_classification(true_class: int, q: ConfusionMatrix, rng: Generator) -> int:
    """Inverse-CDF draw of the predicted label from row `true_class` of Q."""
    row = np.cumsum(q.entries[true_class])
    return int(np.searchsorted(row, rng.random(), side="right"))


def composition_snapshot(state: QueueState) -> np.ndarray:
    """N~_kl matrix: present jobs counted by (true class k, predicted class l)."""
    return np.array(state.comp, dtype=np.int64)


def _counts_from(state, *, true_side: bool):
    """Accept either a QueueState or a bare sequence of queue lengths."""
    if true_side:
        if hasattr(state, "true_counts"):
            return state.true_counts  # property may raise OracleUnavailableError
        return state
    if hasattr(state, "pred_counts"):
        return state.pred_counts
    return state


def decide(state, policy) -> Optional[int]:
    """The class to serve now, or None (idle) if every queue is empty.

    For the index kinds the decision is the index argmax over nonempty
    scheduling classes (true classes for oracle, predicted otherwise).  For
    global FCFS it is the class whose head job arrived first; heads suffice
    because service order within a class is arrival order.
    """
    if policy.kind == "fcfs":
        heads = state.head_arrivals()
        best, best_t = None, float("inf")
        for l, t in enumerate(heads):
            if t < best_t:
                best, best_t = l, t
        return best
    counts = _counts_from(state, true_side=policy.uses_true_class)
    return decide_counts(policy.index, counts)


@dataclass(frozen=True)
class RefPath:
    """One simulated path in the old object layout: a list of `Job`s."""

    jobs: list
    curves: Curves
    seed: int
    event_count: int
    horizon: float
    n_classes: int
    policy_kind: str
    arrival_times: np.ndarray
    arrival_workloads: np.ndarray


def _uniform_to_positive(u: float) -> float:
    # rng.random() is in [0, 1); 1-u is in (0, 1], making -log safe.
    return 1.0 - u


def _dist_family(dist):
    return dist.family, {"sigma": dist.sigma}


def _make_service_sampler(dist, rates: np.ndarray, rng: Generator):
    """Returns draw(true_class) -> service requirement with mean 1/mu_k."""
    family, params = _dist_family(dist)
    if family == "exponential":
        def draw(k):
            return -float(np.log(_uniform_to_positive(rng.random()))) / rates[k]
    elif family == "deterministic":
        def draw(k):
            return 1.0 / rates[k]
    elif family == "lognormal":
        sigma = float(params.get("sigma", 0.5))
        mu_log = -0.5 * sigma * sigma  # exp(m + s Z) has mean exp(m + s^2/2)
        def draw(k):
            z = ndtri(_uniform_to_positive(rng.random()))
            return float(np.exp(mu_log + sigma * z)) / rates[k]
    else:
        raise ConfigError(f"unknown service distribution family {family!r}")
    return draw


def _make_interarrival_sampler(dist, lam: float, rng: Generator):
    family, params = _dist_family(dist)
    if family == "exponential":
        def draw(rate=lam):
            return -float(np.log(_uniform_to_positive(rng.random()))) / rate
    elif family == "deterministic":
        def draw(rate=lam):
            return 1.0 / rate
    elif family == "lognormal":
        sigma = float(params.get("sigma", 0.5))
        mu_log = -0.5 * sigma * sigma
        def draw(rate=lam):
            z = ndtri(_uniform_to_positive(rng.random()))
            return float(np.exp(mu_log + sigma * z)) / rate
    else:
        raise ConfigError(f"unknown arrival distribution family {family!r}")
    return family, draw


def run_path(config: SystemConfig, policy, seed: int, sampling_grid: int = 51, *,
             arrival_schedule: Optional[RateSchedule] = None,
             service_schedule: Optional[RateSchedule] = None,
             event_cap: int = 5_000_000) -> RefPath:
    """Simulate [0, horizon] event by event under one policy (a kind or a
    policy object, run by its kind as a `RefPolicy`) and seed."""
    if sampling_grid < 2:
        raise ConfigError("sampling_grid must be >= 2")
    policy = RefPolicy.for_config(policy if isinstance(policy, str) else policy.kind, config)
    if arrival_schedule is not None and _dist_family(config.arrival_dist)[0] != "exponential":
        raise ConfigError("arrival schedules require exponential interarrivals (thinning)")

    k_classes = config.n_classes
    horizon = config.horizon
    lam = config.lam
    by_true = policy.uses_true_class

    root = Philox(key=seed)
    rngs = [Generator(root.jumped(i)) for i in (_SUB_ARRIVALS, _SUB_CLASSES,
                                                _SUB_SERVICES, _SUB_LABELS)]
    rng_arr, rng_cls, rng_srv, rng_lab = rngs

    _, draw_gap = _make_interarrival_sampler(config.arrival_dist, lam, rng_arr)
    draw_service = _make_service_sampler(config.service_dist, config.service_rates, rng_srv)
    prev_cdf = np.cumsum(config.prevalences)
    label_cdf = np.cumsum(config.confusion.entries, axis=1)

    if arrival_schedule is None:
        def next_arrival(t):
            return t + draw_gap()
    else:
        lam_max = lam * arrival_schedule.max_multiplier
        def next_arrival(t):
            # Poisson thinning at the bounding rate.
            while True:
                t = t - float(np.log(_uniform_to_positive(rng_arr.random()))) / lam_max
                m = arrival_schedule(t)
                if m >= arrival_schedule.max_multiplier:
                    return t  # acceptance certain: don't burn a thinning draw
                if rng_arr.random() * arrival_schedule.max_multiplier <= m:
                    return t

    state = QueueState(k_classes, oracle_visible=by_true)
    queues = state.queues
    pred_counts = state.pred_counts
    true_counts = state._true_counts
    comp = state.comp

    grid = np.linspace(0.0, horizon, sampling_grid)
    rec_n = np.zeros((sampling_grid, k_classes), dtype=np.int64)
    rec_w = np.zeros(sampling_grid)
    rec_comp = np.zeros((sampling_grid, k_classes, k_classes), dtype=np.int64)
    gi = 0  # next grid index to record

    jobs: list[Job] = []
    arrival_w: list[float] = []

    w = 0.0          # Lindley workload
    w_t = 0.0        # time w refers to
    serving: Optional[Job] = None
    serving_end = _INF
    serving_class = -1
    t_arr = next_arrival(0.0)
    events = 0

    def start_service(job: Job, now: float):
        nonlocal serving, serving_end, serving_class, w, w_t
        if service_schedule is not None and not job.started:
            m = service_schedule(now)
            scaled = job.remaining / m
            # keep the workload tracker consistent with the rescaled requirement
            w = max(0.0, w - (now - w_t)) + (scaled - job.remaining)
            w_t = now
            job.remaining = scaled
        job.started = True
        serving = job
        serving_class = job.true_class if by_true else job.predicted_class
        # global FCFS without a schedule ends a job at a + W_+ (the engine's closed form)
        serving_end = (job.arrival_time + arrival_w[job.id]
                       if policy.kind == "fcfs" and service_schedule is None
                       else now + job.remaining)

    def choose_and_start(now: float):
        nonlocal serving, serving_end, serving_class
        target = decide(state, policy)
        if target is None:
            serving, serving_end, serving_class = None, _INF, -1
            return
        if serving is not None and target == serving_class:
            return  # head unchanged; same job keeps the server
        if serving is not None:
            serving.remaining = serving_end - now  # preempt, resume later
        start_service(queues[target][0], now)

    while True:
        t_next = serving_end if serving_end <= t_arr else t_arr
        bound = horizon if t_next > horizon else t_next
        while gi < sampling_grid and grid[gi] < bound:
            rec_n[gi] = pred_counts
            rec_w[gi] = max(0.0, w - (grid[gi] - w_t))
            rec_comp[gi] = comp
            gi += 1
        if t_next > horizon:
            break
        events += 1
        if events > event_cap:
            raise EventOverflowError(
                f"exceeded {event_cap} events before t={t_next:.4g} (horizon {horizon}); "
                "check rho or raise event_cap"
            )
        state.clock = t_next

        if serving_end <= t_arr:
            # completion of the serving job (head of its queue)
            t = serving_end
            job = queues[serving_class].popleft()
            job.completion_time = t
            job.remaining = 0.0
            pred_counts[job.predicted_class] -= 1
            true_counts[job.true_class] -= 1
            comp[job.true_class][job.predicted_class] -= 1
            serving, serving_end, serving_class = None, _INF, -1
            choose_and_start(t)
        else:
            # arrival
            t = t_arr
            k = int(np.searchsorted(prev_cdf, rng_cls.random(), side="right"))
            s = draw_service(k)
            l = int(np.searchsorted(label_cdf[k], rng_lab.random(), side="right"))
            job = Job(len(jobs), t, k, l, s)
            jobs.append(job)
            queues[job.true_class if by_true else l].append(job)
            pred_counts[l] += 1
            true_counts[k] += 1
            comp[k][l] += 1
            w = max(0.0, w - (t - w_t)) + s
            w_t = t
            arrival_w.append(w)
            t_arr = next_arrival(t)
            if serving is None or policy.preemptive:
                choose_and_start(t)

    # flush remaining grid points (state is frozen past the last event <= horizon)
    while gi < sampling_grid:
        rec_n[gi] = pred_counts
        rec_w[gi] = max(0.0, w - (grid[gi] - w_t))
        rec_comp[gi] = comp
        gi += 1
    if serving is not None:
        serving.remaining = serving_end - horizon  # unfinished work at the horizon
    state.clock = horizon

    curves = Curves(grid=grid, queue_lengths=rec_n, workload=rec_w, composition=rec_comp)
    return RefPath(
        jobs=jobs,
        curves=curves,
        seed=seed,
        event_count=events,
        horizon=horizon,
        n_classes=k_classes,
        policy_kind=policy.kind,
        arrival_times=np.array([j.arrival_time for j in jobs]),
        arrival_workloads=np.array(arrival_w),
    )


# ------------------------------------------------------------------ pricing

_RULES = (COMPLETED_ONLY, TRUNCATE_AT_HORIZON)


def job_costs(path: PathResult, config: SystemConfig, rule: str) -> np.ndarray:
    """Each job's charge C_k(sojourn) under the rule, k its true class, one
    class at a time; open jobs are charged C_k(horizon - arrival) or nothing."""
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


def cost_curve(path: PathResult, config: SystemConfig, rule: str, grid) -> np.ndarray:
    """J on the grid: the cumulative charge of the jobs arrived by each time."""
    cum = np.concatenate([[0.0], np.cumsum(job_costs(path, config, rule))])
    return cum[np.searchsorted(path.arrival_times, grid, side="right")]


def replication_oracle(config: SystemConfig, kinds, n_paths: int, base_seed: int, rule: str,
                       eval_times) -> dict:
    """Per kind, the rows a replication aggregates, one seed at a time: J on
    eval_times (n_paths x len(eval_times)), event counts, jobs open at the
    horizon and their truncated cost."""
    out = {kind: {"values": [], "events": [], "open_jobs": [], "open_costs": []}
           for kind in kinds}
    for seed in range(base_seed, base_seed + n_paths):
        for kind in kinds:
            path, rows = pqsched.run_path(config, kind, seed, sampling_grid=2), out[kind]
            rows["values"].append(cost_curve(path, config, rule, eval_times))
            rows["events"].append(path.event_count)
            rows["open_jobs"].append(int(np.count_nonzero(~path.done)))
            truncated = job_costs(path, config, TRUNCATE_AT_HORIZON)
            rows["open_costs"].append(float(truncated[~path.done].sum()))
    return {kind: {name: np.array(rows) for name, rows in fields.items()}
            for kind, fields in out.items()}
