"""The columnar engine against the event-by-event reference, bit for bit."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsched import (
    POLICY_KINDS,
    ConfusionMatrix,
    CostFn,
    RateSchedule,
    SystemConfig,
    engine,
    run_path,
)
import reference_engine


def assert_same_path(cfg, kind, seed, **kwargs):
    new = run_path(cfg, kind, seed, **kwargs)
    ref = reference_engine.run_path(cfg, kind, seed, **kwargs)
    jobs = ref.jobs
    columns = {
        "arrival_times": [j.arrival_time for j in jobs],
        "true_class": [j.true_class for j in jobs],
        "predicted_class": [j.predicted_class for j in jobs],
        "service": [j.service_req for j in jobs],
        "completion": [np.nan if j.completion_time is None else j.completion_time
                       for j in jobs],
        "remaining": [j.remaining for j in jobs],
        "arrival_workloads": ref.arrival_workloads,
    }
    for name, expect in columns.items():
        got = getattr(new, name)
        assert got.shape == (len(jobs),), name
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
    k = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k)))
    mu = np.array(draw(st.lists(st.floats(0.5, 4.0), min_size=k, max_size=k)))
    rows = np.array(draw(st.lists(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k),
                                  min_size=k, max_size=k)))
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
@given(cfg=small_configs(), kind=st.sampled_from(POLICY_KINDS),
       seed=st.integers(0, 2**32 - 1), grid=st.integers(2, 60),
       arrival_schedule=_SCHEDULES, service_schedule=_SCHEDULES)
def test_matches_reference(cfg, kind, seed, grid, arrival_schedule, service_schedule):
    if cfg.arrival_dist.family != "exponential":
        arrival_schedule = None  # thinning needs exponential interarrivals
    assert_same_path(cfg, kind, seed, sampling_grid=grid,
                     arrival_schedule=arrival_schedule,
                     service_schedule=service_schedule)


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
        assert len(path.jobs) > 1500
