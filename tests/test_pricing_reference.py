"""One-pass pricing and seed-block replication against per-seed oracles.

The oracle for pricing is `reference_engine.job_costs`, one mask pass per
class; the oracle for a replication is `reference_engine.replication_oracle`,
`run_paths` and that pricing one seed at a time.  Every figure but the open
jobs' summed cost must match bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pqsched import (
    COMPLETED_ONLY,
    POLICY_KINDS,
    TRUNCATE_AT_HORIZON,
    ConfusionMatrix,
    CostFn,
    Curves,
    PathResult,
    PolicyRef,
    SystemConfig,
    compare_policies,
    cost,
    path_cost,
    replicate,
    run_paths,
    simulate_block,
    terminal_cost,
)
from helpers import ten_class_config
import reference_engine

_RULES = (COMPLETED_ONLY, TRUNCATE_AT_HORIZON)


def _path(jobs, horizon, n_classes) -> PathResult:
    """A path of (arrival, true class, completion or NaN) rows, in arrival order."""
    a, k, c = (np.array(col, dtype=dtype) for col, dtype in
               zip(zip(*jobs) if jobs else ([], [], []), (float, np.int64, float)))
    curves = Curves(np.array([0.0, horizon]), np.zeros((2, n_classes), dtype=np.int64),
                    np.zeros(2), np.zeros((2, n_classes, n_classes), dtype=np.int64))
    return PathResult(a, k, k, np.ones(len(a)), c, np.zeros(len(a)), np.zeros(len(a)),
                      curves, 0, 0, horizon, n_classes, "pcmu")


@st.composite
def priced_blocks(draw):
    """A config of 1-6 classes with mixed powers and a block of 1-4 paths,
    each possibly empty, with open and completed jobs."""
    k = draw(st.integers(1, 6))
    costs = tuple(CostFn(draw(st.floats(0.01, 50.0)), draw(st.sampled_from([2.0, 2.5, 3.0, 4.0])))
                  for _ in range(k))
    horizon = draw(st.floats(0.1, 50.0))
    cfg = SystemConfig(lam=1.0, prevalences=np.full(k, 1.0 / k), service_rates=np.ones(k),
                       costs=costs, confusion=ConfusionMatrix(np.eye(k)), horizon=horizon)
    job = st.tuples(st.floats(0.0, horizon), st.integers(0, k - 1),
                    st.one_of(st.none(), st.floats(1e-9, horizon)))
    paths = []
    for rows in draw(st.lists(st.lists(job, max_size=30), min_size=1, max_size=4)):
        rows = sorted(rows, key=lambda r: r[0])
        paths.append(_path([(a, c, np.nan if s is None else a + s) for a, c, s in rows],
                           horizon, k))
    return cfg, paths


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=priced_blocks(), rule=st.sampled_from(_RULES), n_grid=st.integers(1, 12))
def test_one_pass_pricing_matches_per_class_oracle(case, rule, n_grid):
    cfg, paths = case
    grid = np.linspace(0.0, cfg.horizon, n_grid)
    # a block: every path's columns end to end, priced at once
    a, k, c = (np.concatenate([getattr(p, f) for p in paths])
               for f in ("arrival_times", "true_class", "completion"))
    bounds = np.cumsum([0] + [len(p.arrival_times) for p in paths])
    charge, truncated, done = cost._charge(cfg, rule, cfg.horizon, a, k, c)
    assert np.array_equal(done, ~np.isnan(c))
    rows = cost._cumulative(charge, a, bounds, grid)
    for i, p in enumerate(paths):
        expect = reference_engine.job_costs(p, cfg, rule)
        assert np.array_equal(charge[bounds[i]:bounds[i + 1]], expect)
        assert np.array_equal(truncated[bounds[i]:bounds[i + 1]],
                              reference_engine.job_costs(p, cfg, TRUNCATE_AT_HORIZON))
        curve = reference_engine.cost_curve(p, cfg, rule, grid)
        assert np.array_equal(rows[i], curve)
        assert np.array_equal(path_cost(p, cfg, rule, grid).values, curve)
        assert terminal_cost(p, cfg, rule) == np.concatenate(([0.0], np.cumsum(expect)))[-1]


@pytest.mark.parametrize("rule", _RULES)
def test_terminal_cost_has_one_definition(rule):
    # J(T) of a path is one number, bit for bit, whichever route reports it
    cfg, kinds, n = ten_class_config(), ("oracle", "pcmu", "naive"), 200
    together = compare_policies(cfg, kinds, n, 0, rule)
    alone = replicate(cfg, "pcmu", n, 0, rule)
    for seed in range(n):
        for kind, p in zip(kinds, run_paths(cfg, kinds, seed, sampling_grid=2)):
            j = terminal_cost(p, cfg, rule)
            assert j == path_cost(p, cfg, rule).values[-1] == together[kind].terminal_costs[seed]
            assert kind != "pcmu" or j == alone.terminal_costs[seed]


def _critical(horizon):
    # rho = 100 * (0.5/150 + 0.5/75) = 1, mixed powers
    return SystemConfig(lam=100.0, prevalences=(0.5, 0.5), service_rates=(150.0, 75.0),
                        costs=(CostFn(1.0), CostFn(4.0, power=3.0)),
                        confusion=ConfusionMatrix(((0.9, 0.1), (0.2, 0.8))), horizon=horizon)


def _assert_matches_oracle(summaries, oracle, rule, eval_times):
    for kind, s in summaries.items():
        want = oracle[kind]
        values = want["values"]
        assert np.array_equal(s.grid, eval_times)
        assert np.array_equal(s.mean, values.mean(axis=0)), kind
        assert np.array_equal(s.stderr, values.std(axis=0, ddof=1) / np.sqrt(len(values))), kind
        assert np.array_equal(s.terminal_costs, values[:, -1]), kind
        assert np.array_equal(s.event_counts, want["events"]), kind
        assert np.array_equal(s.open_jobs, want["open_jobs"]), kind
        assert s.open_costs == pytest.approx(want["open_costs"], rel=1e-12, abs=0.0), kind
        assert s.charging_rule == rule


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("rule", _RULES)
def test_seed_blocks_match_per_seed_oracle(monkeypatch, n_jobs, rule):
    cfg = _critical(horizon=2.0)
    n_paths, base_seed = 7, 11
    # one block of 7 seeds, or blocks of 4 and 3 with two workers, priced in
    # batches of 3 seeds: neither divides the other, so a last batch is short
    monkeypatch.setattr(cost, "_BATCH_JOBS", 3 * int(cfg.lam * cfg.horizon + 1.0))
    eval_times = np.linspace(0.0, cfg.horizon, 7)
    oracle = reference_engine.replication_oracle(cfg, POLICY_KINDS, n_paths, base_seed, rule,
                                                 eval_times)
    # the next seeds' queues outgrow the tables the first seed of a block built
    sizes = [np.bincount(p.predicted_class, minlength=2)
             for s in range(base_seed, base_seed + n_paths)
             for p in run_paths(cfg, ["pcmu"], s, sampling_grid=2)]
    assert np.any(np.max(sizes[1:4], axis=0) > sizes[0])
    assert np.any(np.max(sizes[5:], axis=0) > sizes[4])
    assert np.any(oracle["pcmu"]["open_jobs"] > 0)
    together = compare_policies(cfg, POLICY_KINDS, n_paths, base_seed, rule, eval_times, n_jobs)
    _assert_matches_oracle(together, oracle, rule, eval_times)
    for kind in ("pcmu", "fcfs"):
        alone = replicate(cfg, kind, n_paths, base_seed, rule, eval_times, n_jobs)
        _assert_matches_oracle({kind: alone}, oracle, rule, eval_times)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_two_seed_blocks_of_one_match_oracle(n_jobs):
    cfg = replace(_critical(horizon=1.0), costs=(CostFn(2.0), CostFn(3.0)))
    eval_times = np.linspace(0.0, cfg.horizon, 11)
    oracle = reference_engine.replication_oracle(cfg, POLICY_KINDS, 2, 0, TRUNCATE_AT_HORIZON,
                                                 eval_times)
    out = compare_policies(cfg, POLICY_KINDS, n_paths=2, base_seed=0, n_jobs=n_jobs)
    _assert_matches_oracle(out, oracle, TRUNCATE_AT_HORIZON, eval_times)


def test_block_builds_each_index_value_once():
    # the seeds of a block share one table per policy: each (class, length)
    # index value is computed once, up to the block's largest class size
    cfg = _critical(horizon=1.0)
    ref = PolicyRef.for_config("pcmu", cfg)
    calls = []
    counting = PolicyRef("pcmu", lambda l, n: calls.append((l, n)) or ref.index(l, n))
    block = list(simulate_block(cfg, [counting], range(5)))
    largest = np.max([np.bincount(labels, minlength=2) for (_, _, _, labels), _ in block],
                     axis=0)
    assert sorted(calls) == [(l, m) for l in range(2) for m in range(1, largest[l] + 1)]
    for seed, ((a, *_), [(completion, *_)]) in zip(range(5), block):
        path, = run_paths(cfg, [ref], seed, sampling_grid=2)
        assert np.array_equal(a, path.arrival_times)
        assert np.array_equal(completion, path.completion, equal_nan=True)


def test_open_cost_share_under_both_rules():
    cfg = _critical(horizon=1.0)
    trunc = replicate(cfg, "pcmu", n_paths=5, base_seed=2)
    comp = replicate(cfg, "pcmu", n_paths=5, base_seed=2, rule=COMPLETED_ONLY)
    assert np.array_equal(trunc.open_jobs, comp.open_jobs)
    assert np.array_equal(trunc.open_costs, comp.open_costs)
    assert 0.0 < trunc.open_cost_share < 1.0
    assert comp.open_cost_share == pytest.approx(trunc.open_cost_share, rel=1e-12)
    # truncated J(T) less completed-only J(T) is the open jobs' truncated cost
    assert trunc.terminal_costs - comp.terminal_costs == pytest.approx(trunc.open_costs,
                                                                        rel=1e-9)
