"""The columnar engine against the event-by-event reference, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsched import (
    POLICY_KINDS,
    ConfusionMatrix,
    CostFn,
    PathResult,
    PolicyRef,
    RateSchedule,
    SystemConfig,
    compare_policies,
    config_to_json,
    cost,
    engine,
    export_curves_csv,
    export_jobs_csv,
    run_path,
)
from pqsched.model import write_json
from pqsched.cli import main
import reference_engine


def reference_path(cfg, kind, seed, **kwargs) -> PathResult:
    """The reference engine's path, its job records turned into columns."""
    ref = reference_engine.run_path(cfg, kind, seed, **kwargs)
    jobs = ref.jobs
    return PathResult(
        arrival_times=np.array([j.arrival_time for j in jobs], dtype=float),
        true_class=np.array([j.true_class for j in jobs], dtype=np.int64),
        predicted_class=np.array([j.predicted_class for j in jobs], dtype=np.int64),
        service=np.array([j.service_req for j in jobs], dtype=float),
        completion=np.array([np.nan if j.completion_time is None else j.completion_time
                             for j in jobs], dtype=float),
        remaining=np.array([j.remaining for j in jobs], dtype=float),
        arrival_workloads=ref.arrival_workloads, curves=ref.curves, seed=ref.seed,
        event_count=ref.event_count, horizon=ref.horizon, n_classes=ref.n_classes,
        policy_kind=ref.policy_kind)


def assert_same_path(cfg, kind, seed, new=None, **kwargs):
    """`new` (run_path's result by default) equals the reference path."""
    if new is None:
        new = run_path(cfg, kind, seed, **kwargs)
    ref = reference_path(cfg, kind, seed, **kwargs)
    for name in ("arrival_times", "true_class", "predicted_class", "service", "completion",
                 "remaining", "arrival_workloads"):
        got, expect = getattr(new, name), getattr(ref, name)
        assert got.shape == ref.arrival_times.shape, name
        assert np.array_equal(got, np.asarray(expect, dtype=got.dtype), equal_nan=True), name
    for name in ("grid", "queue_lengths", "workload", "composition"):
        got, expect = getattr(new.curves, name), getattr(ref.curves, name)
        assert got.dtype == expect.dtype and np.array_equal(got, expect), name
    assert new.event_count == ref.event_count
    assert new.policy_kind == ref.policy_kind
    return new


_FAMILIES = st.one_of(
    st.sampled_from(["exponential", "deterministic"]),
    st.builds(lambda s: {"family": "lognormal", "sigma": s}, st.floats(0.1, 1.5)),
)
_SCHEDULES = st.one_of(
    st.none(),
    st.builds(RateSchedule.sinusoidal, st.floats(0.05, 0.9), st.floats(0.1, 20.0)),
    st.builds(RateSchedule.constant, st.floats(0.5, 2.0)),
)


@st.composite
def small_configs(draw):
    k = draw(st.integers(1, 6))
    if draw(st.booleans()):
        # identical classes: every index ties whenever two counts are equal
        weights, mu = np.ones(k), np.full(k, draw(st.floats(0.5, 4.0)))
        costs = (CostFn(draw(st.floats(0.5, 20.0)), draw(st.sampled_from([2.0, 3.0]))),) * k
        rows = np.eye(k) if draw(st.booleans()) else np.ones((k, k))
    else:
        weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
        mu = np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=k, max_size=k)))
        rows = np.array(draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
                                      min_size=k, max_size=k)))
        # mixed powers take the marginal-cost branch of the index
        costs = tuple(CostFn(draw(st.floats(0.5, 20.0)), draw(st.sampled_from([2.0, 3.0])))
                      for _ in range(k))
    prevalences = weights / weights.sum()
    lam = draw(st.floats(0.5, 1.3)) / float(np.sum(prevalences / mu))  # rho in [0.5, 1.3]
    return SystemConfig(
        lam=lam, prevalences=prevalences, service_rates=mu, costs=costs,
        confusion=ConfusionMatrix(rows / rows.sum(axis=1, keepdims=True)),
        horizon=draw(st.floats(0.5, 120.0)) / lam,  # up to ~120 arrivals
        arrival_dist=draw(_FAMILIES), service_dist=draw(_FAMILIES))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=small_configs(), seed=st.integers(0, 2**32 - 1), grid=st.integers(2, 60),
       arrival_schedule=_SCHEDULES, service_schedule=_SCHEDULES)
def test_matches_reference(cfg, seed, grid, arrival_schedule, service_schedule):
    # every policy on one stream, FCFS under a service schedule included
    if cfg.arrival_dist.family != "exponential":
        arrival_schedule = None  # thinning needs exponential interarrivals
    kwargs = dict(sampling_grid=grid, arrival_schedule=arrival_schedule,
                  service_schedule=service_schedule)
    for kind in POLICY_KINDS:
        assert_same_path(cfg, kind, seed, **kwargs)
        if kind != "fcfs":  # the folded index gives the old index's bits
            new = PolicyRef.for_config(kind, cfg).index
            old = reference_engine.RefPolicy.for_config(kind, cfg).index
            for l in range(cfg.n_classes):
                assert [new(l, n) for n in range(-1, 40)] == [old(l, n) for n in range(-1, 40)]


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_matches_reference_across_draw_chunks(monkeypatch, critical_config, kind):
    # substreams read a few values at a time must give the one-at-a-time draws
    monkeypatch.setattr(engine, "_CHUNK", 3)
    lognormal = replace(critical_config, horizon=2.0,
                        service_dist={"family": "lognormal", "sigma": 0.8})
    for seed in range(3):
        assert_same_path(lognormal, kind, seed, sampling_grid=17)
        assert_same_path(critical_config, kind, seed, sampling_grid=17,
                         arrival_schedule=RateSchedule.sinusoidal(0.5, 7.0),
                         service_schedule=RateSchedule.sinusoidal(0.3, 3.0))


def test_long_critical_path_matches_reference(critical_config):
    # rho = 1 at T = 20: about 2000 arrivals and deep queues
    cfg = replace(critical_config, horizon=20.0)
    for kind in POLICY_KINDS:
        path = assert_same_path(cfg, kind, seed=1, sampling_grid=201)
        assert path.arrival_times.size > 1500


@pytest.mark.parametrize("batch_jobs", [1, 1 << 11])
def test_compare_policies_one_kind_equals_all_kinds(monkeypatch, critical_config, batch_jobs):
    # one kind alone equals the same kind among all kinds, in every field,
    # with one seed per batch or all six seeds in one batch
    monkeypatch.setattr(cost, "_BATCH_JOBS", batch_jobs)
    cfg = replace(critical_config, horizon=2.0)
    out = compare_policies(cfg, POLICY_KINDS, n_paths=6, base_seed=3)
    for kind in POLICY_KINDS:
        alone = compare_policies(cfg, [kind], n_paths=6, base_seed=3)[kind]
        for field in ("policy_kind", "n_paths", "base_seed", "charging_rule", "grid", "mean",
                      "stderr", "terminal_costs", "event_counts", "open_jobs", "open_costs"):
            assert np.array_equal(getattr(out[kind], field), getattr(alone, field)), field
        # alone, no oracle shares the seeds
        assert alone.ratio_to_oracle is None or kind == "oracle"


def test_simulate_single_path_csvs_match_reference(tmp_path, critical_config):
    cfg = replace(critical_config, horizon=3.0,
                  costs=(CostFn(1.0), CostFn(4.0, power=3.0)))
    write_json(tmp_path / "system.json", config_to_json(cfg))
    out = tmp_path / "out"
    args = ["simulate", "--config", str(tmp_path / "system.json"), "--paths", "1",
            "--seed", "5", "--out", str(out)]
    result = CliRunner().invoke(main, args + [a for k in POLICY_KINDS for a in ("--policy", k)])
    assert result.exit_code == 0, result.output
    for kind in POLICY_KINDS:
        ref = reference_path(cfg, kind, 5, sampling_grid=201)
        export_jobs_csv(ref, tmp_path / "jobs.csv")
        export_curves_csv(ref, tmp_path / "curves.csv")
        for name in ("jobs", "curves"):
            expect = (tmp_path / f"{name}.csv").read_bytes()
            assert (out / f"{name}_{kind}.csv").read_bytes() == expect, (kind, name)
