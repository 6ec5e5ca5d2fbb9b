import csv
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from pqsched import (
    ConfigError,
    ConfusionMatrix,
    CostFn,
    EventOverflowError,
    PolicyRef,
    RateSchedule,
    ScheduleNonPositiveError,
    SystemConfig,
    derive_predicted_params,
    export_curves_csv,
    export_jobs_csv,
    run_path,
    simulate_block,
)
from pqsched.engine import _categorical
from conftest import make_two_class
from helpers import exact_int_w2, workload_at_horizon
from reference_engine import (
    OracleUnavailableError,
    QueueState,
    composition_snapshot,
    decide,
    sample_classification,
)


def _det_config(**overrides):
    kwargs = dict(lam=0.8, prevalences=(0.5, 0.5), service_rates=(0.5, 1.0),
                  costs=(CostFn(1.0), CostFn(100.0)),
                  confusion=ConfusionMatrix.identity(2), horizon=3.7,
                  arrival_dist="deterministic", service_dist="deterministic")
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


# ---------------------------------------------------------- basic traces

def test_empty_path_before_first_arrival():
    cfg = _det_config(horizon=1.0)  # first deterministic arrival at 1.25
    path = run_path(cfg, "pcmu", seed=0)
    assert path.arrival_times.size == 0
    assert path.completion.size == 0
    assert np.all(path.curves.workload == 0.0)
    assert np.all(path.curves.queue_lengths == 0)
    assert exact_int_w2(path.arrival_times, path.arrival_workloads, path.horizon) == 0.0


def test_single_job_deterministic():
    cfg = _det_config(horizon=2.0)  # one arrival at 1.25
    for kind in ("oracle", "naive", "pcmu", "fcfs"):
        path = run_path(cfg, kind, seed=1)  # seed 1 -> first class is 0
        assert path.arrival_times.size == 1
        assert path.arrival_times[0] == pytest.approx(1.25)
        assert path.true_class[0] == 0
        assert path.service[0] == pytest.approx(2.0)  # 1/mu_1
        assert not path.done[0]                       # 1.25 + 2 > 2.0
        assert path.remaining[0] == pytest.approx(2.0 - 0.75)


def test_two_job_preemptive_resume_trace():
    # Deterministic arrivals at 1.25 (class 1, service 2) and 2.5 (class 2,
    # service 1) with the second class carrying a 100x cost weight: the
    # second job preempts, completes at 3.5, and the first job resumes with
    # 0.75 remaining, leaving 0.55 unfinished at the 3.7 horizon.
    path = run_path(_det_config(), "pcmu", seed=1)
    assert path.arrival_times.size == 2
    assert path.true_class.tolist() == [0, 1]
    assert path.arrival_times == pytest.approx([1.25, 2.5])
    assert path.completion[1] == pytest.approx(3.5)
    assert (path.completion - path.arrival_times)[1] == pytest.approx(1.0)  # sojourn
    started = path.done | (path.remaining != path.service)
    assert not path.done[0] and started[0]
    assert path.remaining[0] == pytest.approx(0.55)
    # workload snapshots: 2.0 at the first arrival, 0.75 + 1.0 at the second
    assert path.arrival_workloads == pytest.approx([2.0, 1.75])
    assert path.curves.workload[-1] == pytest.approx(0.55)
    assert path.curves.workload[-1] == pytest.approx(path.remaining[~path.done].sum())


def test_fcfs_never_preempts():
    # same two-job trace under global FCFS: the first job keeps the server,
    # so the second (4.25 due) is still open at the 3.7 horizon
    path = run_path(_det_config(), "fcfs", seed=1)
    assert path.completion[0] == pytest.approx(3.25)   # 1.25 + 2.0
    assert not path.done[1]
    assert path.remaining[1] == pytest.approx(4.25 - 3.7)


def test_fcfs_completes_at_arrival_plus_workload():
    # global FCFS on the critical system at T = 10: a job ends at its arrival
    # plus the work it finds and brings, W_+ after its arrival, bit for bit
    cfg = make_two_class(horizon=10.0, lam=100.0, prevalences=(0.5, 0.5),
                         service_rates=(150.0, 75.0), costs=(CostFn(1.0), CostFn(4.0)))
    open_jobs = 0
    for seed in range(4):
        path = run_path(cfg, "fcfs", seed, sampling_grid=2)
        c = path.arrival_times + path.arrival_workloads
        assert np.array_equal(path.done, c <= cfg.horizon)
        assert np.array_equal(path.completion[path.done], c[path.done])
        assert np.array_equal(path.remaining, np.clip(c - cfg.horizon, 0.0, path.service))
        open_jobs += np.count_nonzero(~path.done)
    assert open_jobs > 0


def test_fcfs_batch_with_empty_seeds_equals_each_seed_alone():
    # at lam = 1, T = 1 seeds 3 and 5-7 draw no arrival, in the middle of the
    # batch and at its end: each seed starts the system empty
    cfg = make_two_class()
    fcfs = [PolicyRef.for_config("fcfs", cfg)]
    seeds = list(range(8))
    (bounds, _, [(completion, remaining, _, events)]), = simulate_block(cfg, fcfs, [seeds])
    sizes = np.diff(bounds)
    assert sizes[-1] == 0 and np.count_nonzero(sizes[:-1] == 0) > 0 and sizes.max() > 1
    for i, seed in enumerate(seeds):
        path = run_path(cfg, "fcfs", seed, sampling_grid=2)
        lo, hi = bounds[i], bounds[i + 1]
        assert np.array_equal(completion[lo:hi], path.completion, equal_nan=True)
        assert np.array_equal(remaining[lo:hi], path.remaining)
        assert events[i] == path.event_count


# ------------------------------------------------- classification sampling

def test_sample_classification_identity_and_certain():
    rng = Generator(Philox(key=7))
    q = ConfusionMatrix.identity(3)
    assert all(sample_classification(k, q, rng) == k for k in range(3))
    q2 = ConfusionMatrix(((0.0, 1.0), (0.0, 1.0)))
    assert all(sample_classification(0, q2, rng) == 1 for _ in range(20))


def test_sample_classification_frequencies():
    q = ConfusionMatrix(((0.9, 0.1), (0.2, 0.8)))
    rng = Generator(Philox(key=11))
    n = 100_000
    draws = np.array([sample_classification(0, q, rng) for _ in range(n)])
    freq = np.mean(draws == 0)
    # binomial 3-sigma band around 0.9
    assert abs(freq - 0.9) < 3 * np.sqrt(0.9 * 0.1 / n)


def test_categorical_never_draws_class_k():
    # ten prevalences of 0.1 pass validation but sum to 1 - 2**-53, the
    # largest uniform Generator.random returns
    cdf = np.cumsum([0.1] * 10)
    top = np.nextafter(1.0, 0.0)
    assert cdf[-1] == top
    assert _categorical(cdf, np.array([top, 0.0, 0.1, 0.5, 0.95])).tolist() == [9, 0, 1, 5, 9]
    # one row per draw, as labels are drawn; a u below the last sum draws
    # what the inverse CDF over all K sums draws
    u = Generator(Philox(key=0)).random(1000) * top
    rows = np.cumsum(Generator(Philox(key=1)).dirichlet(np.ones(10), 1000), axis=1)
    assert np.array_equal(_categorical(cdf, u), np.searchsorted(cdf, u, side="right"))
    below = u < rows[:, -1]
    assert np.array_equal(_categorical(rows, u)[below], np.sum(rows <= u[:, None], axis=1)[below])
    assert _categorical(rows, rows[:, -1]).max() == 9


# ----------------------------------------------------- state and snapshots

def test_composition_snapshot_empty_and_shapes():
    state = QueueState(n_classes=3)
    snap = composition_snapshot(state)
    assert snap.shape == (3, 3)
    assert snap.dtype == np.int64
    assert np.all(snap == 0)


def test_oracle_visibility_gate():
    blind = QueueState(n_classes=2, oracle_visible=False)
    with pytest.raises(OracleUnavailableError):
        _ = blind.true_counts
    seeing = QueueState(n_classes=2, oracle_visible=True)
    assert seeing.true_counts == [0, 0]


def test_oracle_policy_on_blind_state_raises(two_class_config):
    # oracle decide needs true counts
    pol = PolicyRef.for_config("oracle", two_class_config)
    state = QueueState(n_classes=2, oracle_visible=False)
    with pytest.raises(OracleUnavailableError):
        decide(state, pol)


@pytest.mark.parametrize("kind", ["pcmu", "oracle", "naive"])
def test_index_past_the_float_range_is_a_config_error(kind):
    # a common power of 300 puts the closed-form index A_l n^299 past the
    # float range at a few dozen jobs: a Python float power once raised a raw
    # OverflowError there
    cfg = make_two_class(horizon=200.0, costs=(CostFn(1.0, 300.0), CostFn(1.0, 300.0)))
    with pytest.raises(ConfigError, match=rf"^NonFinite: costs\[\d\] = .* \(the {kind} index "
                                          r"of class \d overflows the float range at queue "
                                          r"length \d+\)$"):
        run_path(cfg, kind, seed=0)


def test_curves_composition_consistent_with_queue_lengths(critical_config):
    cfg = critical_config
    path = run_path(cfg, "pcmu", seed=3, sampling_grid=101)
    comp = path.curves.composition        # (G, K, K) by (true, predicted)
    per_label = comp.sum(axis=1)
    assert np.array_equal(per_label, path.curves.queue_lengths)
    assert np.all(comp >= 0)


def test_identity_confusion_composition_is_diagonal(identity_config):
    cfg = make_two_class(lam=30.0, confusion=((1.0, 0.0), (0.0, 1.0)))
    path = run_path(cfg, "pcmu", seed=5, sampling_grid=41)
    comp = path.curves.composition
    off = comp.copy()
    off[:, 0, 0] = 0
    off[:, 1, 1] = 0
    assert np.all(off == 0)


# ------------------------------------------------------------ conservation

def test_conservation_and_horizon_workload(critical_config):
    path = run_path(critical_config, "pcmu", seed=2, sampling_grid=501)
    done = path.done
    # trajectory workload at the horizon equals unfinished work by jobs
    assert path.curves.workload[-1] == pytest.approx(path.remaining[~done].sum(), abs=1e-9)
    # and equals the Lindley recursion applied to the arrival snapshots
    assert path.curves.workload[-1] == pytest.approx(
        workload_at_horizon(path), abs=1e-9)
    # completed jobs received exactly their service requirement
    assert np.all(path.remaining[done] == 0.0)
    assert np.all(path.completion[done] >= path.arrival_times[done] + path.service[done] - 1e-9)


def test_pfcfs_within_predicted_class(critical_config):
    path = run_path(critical_config, "pcmu", seed=7)
    for l in range(2):
        # completions in arrival order: columns are in arrival order already
        completions = path.completion[path.done & (path.predicted_class == l)]
        assert np.all(np.diff(completions) >= 0.0)


def test_little_law_diagnostic(critical_config):
    # time-average number in system ~ lam * mean sojourn-ish bound; this is
    # a smoke check that queue length curves and job books agree in scale.
    path = run_path(critical_config, "pcmu", seed=11, sampling_grid=2001)
    mean_n = path.curves.queue_lengths.sum(axis=1).mean()
    total_time_in_system = np.sum(
        np.where(path.done, path.completion, path.horizon) - path.arrival_times)
    assert mean_n == pytest.approx(total_time_in_system / path.horizon, rel=0.05)


def test_workload_queue_link_tightens_with_scale():
    # |mu~_l W_l(T) - N~_l(T)| / N~_l(T), averaged over paths, should shrink
    # as the job count per path grows (1e2 -> 1e3 -> 1e4 at rho = 1).
    q = ConfusionMatrix(((0.9, 0.1), (0.2, 0.8)))
    base = dict(lam=100.0, prevalences=(0.5, 0.5), service_rates=(150.0, 75.0),
                costs=(CostFn(1.0), CostFn(4.0)), confusion=q)
    rels = []
    for horizon, n_paths in ((1.0, 100), (10.0, 60), (100.0, 25)):
        cfg = SystemConfig(horizon=horizon, **base)
        params = derive_predicted_params(cfg)
        pol = PolicyRef.for_config("pcmu", cfg)
        num = 0.0
        den = 0.0
        for seed in range(n_paths):
            path = run_path(cfg, pol, seed=seed)
            label, open_ = path.predicted_class, ~path.done
            w_l = np.bincount(label[open_], weights=path.remaining[open_], minlength=2)
            n_l = np.bincount(label[open_], minlength=2)
            num += float(np.abs(params.mu_tilde * w_l - n_l).sum())
            den += float(n_l.sum())
        rels.append(num / den)
    assert rels[0] > rels[1] > rels[2]
    assert rels[2] < 0.15


# ------------------------------------------------------------- determinism

def test_run_path_deterministic(critical_config):
    a = run_path(critical_config, "pcmu", seed=9)
    b = run_path(critical_config, "pcmu", seed=9)
    assert np.array_equal(a.arrival_times, b.arrival_times)
    assert np.array_equal(a.arrival_workloads, b.arrival_workloads)
    assert np.array_equal(a.completion, b.completion, equal_nan=True)
    c = run_path(critical_config, "pcmu", seed=10)
    assert not np.array_equal(a.arrival_times, c.arrival_times)


def test_policy_kind_string_equals_policy_ref(critical_config):
    pol = PolicyRef.for_config("naive", critical_config)
    a = run_path(critical_config, "naive", seed=4)
    b = run_path(critical_config, pol, seed=4)
    assert np.array_equal(a.completion, b.completion, equal_nan=True)


def test_workload_invariant_to_confusion_and_policy(critical_config):
    # same seed: the (arrival, workload) skeleton must match exactly across
    # classifier matrices and work-conserving policies.
    noisy = run_path(critical_config, "pcmu", seed=6)
    ident = run_path(make_two_class(
        lam=100.0, prevalences=(0.5, 0.5), service_rates=(150.0, 75.0),
        costs=(CostFn(1.0), CostFn(4.0)),
        confusion=((1.0, 0.0), (0.0, 1.0))), "pcmu", seed=6)
    other = run_path(critical_config, "fcfs", seed=6)
    assert np.array_equal(noisy.arrival_times, ident.arrival_times)
    assert np.array_equal(noisy.arrival_workloads, ident.arrival_workloads)
    assert np.array_equal(noisy.arrival_times, other.arrival_times)
    assert np.array_equal(noisy.arrival_workloads, other.arrival_workloads)
    assert np.array_equal(noisy.curves.workload, other.curves.workload)


# ------------------------------------------------------------- schedules

@pytest.mark.parametrize("seed", range(20))
def test_constant_schedule_one_is_identity(critical_config, seed):
    plain = run_path(critical_config, "pcmu", seed=seed)
    scheduled = run_path(critical_config, "pcmu", seed=seed,
                         arrival_schedule=RateSchedule.constant(1.0))
    assert np.array_equal(plain.arrival_times, scheduled.arrival_times)
    assert np.array_equal(plain.arrival_workloads, scheduled.arrival_workloads)


def test_constant_schedule_one_is_identity_over_many_seeds(critical_config):
    # a thinning gap one ulp off Dist.draws' reaches the arrival time only
    # while t is a few gaps long, so a transform mismatch shows over many
    # paths: 1,000 seeds of about 100 arrivals (math.log in the thinning
    # route instead moves dozens of arrival times)
    fcfs, seeds = [PolicyRef.for_config("fcfs", critical_config)], [range(1000)]
    (bounds, (a, *_), _), = simulate_block(critical_config, fcfs, seeds)
    (bounds_s, (a_s, *_), _), = simulate_block(critical_config, fcfs, seeds,
                                               arrival_schedule=RateSchedule.constant(1.0))
    assert np.array_equal(bounds, bounds_s) and np.array_equal(a, a_s)


def test_constant_half_rate_halves_arrivals():
    cfg = make_two_class(lam=200.0)
    half = RateSchedule.constant(0.5)
    counts = [run_path(cfg, "fcfs", seed=s, arrival_schedule=half).arrival_times.size
              for s in range(30)]
    mean = np.mean(counts)
    # Poisson(100) averaged over 30 paths: 3 sigma ~ 5.5
    assert abs(mean - 100.0) < 3 * np.sqrt(100.0 / 30)


def test_sinusoidal_schedule_shape():
    # multiplier m(t) = max(0.5, 1 + 0.05 sin(11 t)) reproduces the rate
    # max(lam/2, lam + 5 sin(11 t)) for lam = 100.
    sched = RateSchedule.sinusoidal(amplitude_frac=0.05, omega=11.0)
    lam = 100.0
    for t in np.linspace(0.0, 2.0, 23):
        expect = max(lam / 2, lam + 5.0 * np.sin(11.0 * t)) / lam
        assert sched(t) == pytest.approx(expect, abs=1e-12)
    assert sched.max_multiplier == pytest.approx(1.05)
    # the floor binds for large negative swings
    deep = RateSchedule.sinusoidal(amplitude_frac=0.9, omega=1.0)
    assert deep(float(np.pi * 1.5)) == pytest.approx(0.5)


def test_arrival_schedule_is_read_on_the_horizon_only():
    # 1 + t keeps its bound of 2 on [0, horizon] only: the first thinning
    # candidate past the horizon must end the stream before it reaches the
    # schedule, and the arrivals are those of the capped ramp
    cfg = make_two_class(lam=20.0, horizon=1.0)
    ramp = RateSchedule(multiplier=lambda t: 1.0 + t, max_multiplier=2.0)
    capped = RateSchedule(multiplier=lambda t: min(1.0 + t, 2.0), max_multiplier=2.0)
    for seed in range(20):
        got = run_path(cfg, "pcmu", seed=seed, arrival_schedule=ramp).arrival_times
        want = run_path(cfg, "pcmu", seed=seed, arrival_schedule=capped).arrival_times
        assert got.size > 0 and np.array_equal(got, want)


def test_service_schedule_scales_requirements():
    # doubling the service rate halves the remaining work when service
    # starts: the drawn 2.0 requirement becomes 1.0, due at 2.25 > horizon 2
    cfg = _det_config(horizon=2.0)
    fast = run_path(cfg, "pcmu", seed=1,
                    service_schedule=RateSchedule.constant(2.0))
    assert fast.service[0] == pytest.approx(2.0)   # drawn requirement kept
    assert not fast.done[0]
    assert fast.remaining[0] == pytest.approx(0.25)    # 1.0 scaled - 0.75 served
    # horizon workload still matches the remaining-work books
    assert fast.curves.workload[-1] == pytest.approx(fast.remaining[~fast.done].sum(), abs=1e-12)
    # with a longer horizon the completion lands at 1.25 + 1.0
    slow_cfg = _det_config(horizon=2.4)
    done = run_path(slow_cfg, "pcmu", seed=1,
                    service_schedule=RateSchedule.constant(2.0))
    assert done.completion[0] == pytest.approx(2.25)


def test_schedules_require_exponential_arrivals():
    cfg = _det_config()
    with pytest.raises(ConfigError):
        run_path(cfg, "pcmu", seed=1,
                 arrival_schedule=RateSchedule.constant(0.5))


def test_simulate_block_checks_the_arrival_schedule():
    # the one check covers run_path and simulate_block alike: thinning a
    # deterministic stream would silently give Poisson arrivals
    cfg = _det_config(lam=20.0)
    with pytest.raises(ConfigError, match="exponential interarrivals"):
        next(simulate_block(cfg, [PolicyRef.for_config("pcmu", cfg)], [[0]],
                            arrival_schedule=RateSchedule.constant(1.0)))


def test_schedule_guards(critical_config):
    zero = RateSchedule(multiplier=lambda t: 0.0, max_multiplier=1.0)
    with pytest.raises(ScheduleNonPositiveError):
        zero(0.3)
    cheat = RateSchedule(multiplier=lambda t: 2.0, max_multiplier=1.0)
    with pytest.raises(ConfigError):
        cheat(0.3)
    # a NaN multiplier is refused where it is read, on either stream
    nan = RateSchedule(multiplier=lambda t: math.nan, max_multiplier=1.0)
    with pytest.raises(ScheduleNonPositiveError):
        nan(0.3)
    for stream in ("arrival_schedule", "service_schedule"):
        with pytest.raises(ScheduleNonPositiveError):
            run_path(critical_config, "pcmu", seed=0, **{stream: nan})
    # an infinite bound would thin forever
    for bound in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ConfigError, match="max_multiplier"):
            RateSchedule(multiplier=lambda t: 1.0, max_multiplier=bound)
    with pytest.raises(ConfigError, match="max_multiplier"):
        RateSchedule.constant(math.nan)
    for args in [(math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0), (0.5, -math.inf),
                 (0.5, 1.0, math.nan)]:
        with pytest.raises(ConfigError, match="NonFinite"):
            RateSchedule.sinusoidal(*args)


# ------------------------------------------------------------------ guards

@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["-1", "2**128"])
def test_seed_outside_philox_keys(critical_config, seed):
    with pytest.raises(ConfigError, match=r"seed .* outside \[0, 2\*\*128\)"):
        run_path(critical_config, "pcmu", seed=seed)
    top = run_path(critical_config, "pcmu", seed=2 ** 128 - 1)
    assert top.arrival_times.size > 0


def test_event_overflow(critical_config):
    # the text names what a CLI user can change, and event_cap only where it is taken
    text = re.escape("more than 10 events before the horizon 1.0; lower rho or lambda * "
                     "horizon (event_cap is an argument of run_path and simulate_block)")
    for kind in ("pcmu", "fcfs"):
        with pytest.raises(EventOverflowError, match=f"^{text}$"):
            run_path(critical_config, kind, seed=0, event_cap=10)
        with pytest.raises(EventOverflowError, match=f"^{text}$"):
            run_path(critical_config, kind, seed=0, event_cap=10,
                     arrival_schedule=RateSchedule.constant(1.0))


def test_event_cap_counts_arrivals_and_completions(critical_config):
    # the cap bounds arrivals plus completions up to the horizon, exactly
    for kind in ("oracle", "naive", "pcmu", "fcfs"):
        path = run_path(critical_config, kind, seed=3)
        events = path.event_count
        assert events > path.arrival_times.size
        run_path(critical_config, kind, seed=3, event_cap=events)
        with pytest.raises(EventOverflowError):
            run_path(critical_config, kind, seed=3, event_cap=events - 1)


def test_event_overflow_is_prompt_at_huge_rate():
    # lambda * T = 1e12 arrivals: the cap must stop the arrival stream after
    # about event_cap draws, not after drawing the whole horizon
    cfg = make_two_class(lam=1e6, horizon=1e6)
    for kind in ("oracle", "naive", "pcmu", "fcfs"):
        for schedule in (None, RateSchedule.constant(1.0)):
            tracemalloc.start()
            t0 = time.perf_counter()
            try:
                with pytest.raises(EventOverflowError):
                    run_path(cfg, kind, seed=0, event_cap=1000,
                             arrival_schedule=schedule)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - t0 < 5.0
            assert peak < 2_000_000


def test_sampling_grid_minimum(critical_config):
    with pytest.raises(ConfigError):
        run_path(critical_config, "pcmu", seed=0, sampling_grid=1)
    path = run_path(critical_config, "pcmu", seed=0, sampling_grid=2)
    assert np.array_equal(path.curves.grid, [0.0, critical_config.horizon])


# ------------------------------------------------------------------- CSVs

def test_export_jobs_csv_roundtrip(tmp_path):
    path = run_path(_det_config(), "pcmu", seed=1)
    target = tmp_path / "jobs.csv"
    export_jobs_csv(path, target)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "arrival", "true_class", "predicted_class",
                       "service", "completion", "sojourn"]
    assert len(rows) == 1 + path.arrival_times.size
    # open job -> empty completion and sojourn cells
    open_row = rows[1]
    assert open_row[5] == "" and open_row[6] == ""
    done_row = rows[2]
    assert float(done_row[5]) == pytest.approx(3.5)
    assert float(done_row[6]) == pytest.approx(1.0)


def test_export_curves_csv_roundtrip(tmp_path):
    path = run_path(_det_config(), "pcmu", seed=1, sampling_grid=11)
    target = tmp_path / "curves.csv"
    export_curves_csv(path, target)
    with open(target, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "N_1", "N_2", "W_plus"]
    assert len(rows) == 12
    grid = np.array([float(r[0]) for r in rows[1:]])
    assert np.allclose(grid, np.linspace(0.0, 3.7, 11))
    w = np.array([float(r[3]) for r in rows[1:]])
    assert np.allclose(w, path.curves.workload)
