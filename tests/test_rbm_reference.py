"""The row-block RBM generator against the dense reference and the closed forms."""

import math
import tracemalloc

import numpy as np
import pytest

from pqsched import CostFn, bm_workload_paths, derive_predicted_params, jstar, kkt_solve
from pqsched import httheory
from conftest import make_two_class
from helpers import stack
import reference_rbm as ref


@pytest.mark.parametrize("n_paths", [1, 127, 128, 129, 257, 1000])
def test_blocks_match_dense_reference(n_paths):
    got = bm_workload_paths(0.7, n_steps=150, horizon=3.0, n_paths=n_paths, seed=5)
    want = ref.bm_workload_paths(0.7, n_steps=150, horizon=3.0, n_paths=n_paths, seed=5)
    assert np.array_equal(got.integral_sq(), want.integral_sq())
    assert np.array_equal(stack(got), want.values)
    assert np.array_equal(got.grid, want.grid)
    assert len(got.integral_sq()) == got.n_paths == n_paths


@pytest.mark.parametrize("rows", [64, 256, 512])
def test_block_size_does_not_move_a_bit(monkeypatch, rows):
    want = bm_workload_paths(1.3, n_steps=200, horizon=2.0, n_paths=1000, seed=8)
    want_paths = stack(want)
    monkeypatch.setattr(httheory, "RBM_BLOCK_ROWS", rows)
    got = bm_workload_paths(1.3, n_steps=200, horizon=2.0, n_paths=1000, seed=8)
    assert np.array_equal(got.integral_sq(), want.integral_sq())
    assert np.array_equal(stack(got), want_paths)


def test_blocks_replay_the_same_stream():
    w = bm_workload_paths(0.5, n_steps=100, horizon=1.0, n_paths=257, seed=2)
    blocks = [b.copy() for b in w.blocks()]
    assert [len(b) for b in blocks] == [128, 129]      # no one-row remainder
    assert np.array_equal(np.vstack(blocks), stack(w))
    assert np.array_equal(stack(w), stack(w))
    with pytest.raises(ValueError):
        w.integral_sq()[0] = 1.0                        # the stored reduction is read-only


@pytest.mark.parametrize("n_paths", [1, 129, 300])
def test_jstar_general_matches_dense_reference(n_paths):
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=n_paths, seed=3)
    dense = ref.bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=n_paths, seed=3)
    split = kkt_solve(dense.values[:, :-1], derive_predicted_params(cfg), cfg.costs)
    want = split.objective @ np.diff(dense.grid)
    assert np.array_equal(jstar(None, cfg, w).per_path, want)


# ------------------------------------------------------------ closed forms

def _abs_normal_moment(p: float) -> float:
    """E|Z|^p for a standard normal Z."""
    return 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)


def _exact(v: float, horizon: float, p: int) -> float:
    """E int_0^T W^p dt for a driftless RBM from 0, where W(t) has the law of
    sqrt(v t) |Z| (Levy): v^(p/2) E|Z|^p T^(p/2+1) / (p/2+1)."""
    return v ** (p / 2.0) * _abs_normal_moment(p) * horizon ** (p / 2.0 + 1.0) / (p / 2.0 + 1.0)


def _euler_allowance(v: float, horizon: float, p: int, n_steps: int) -> float:
    """Bias allowed to the grid estimate of E int W^p.  Reflecting at grid
    points only keeps the path about 0.5826 sqrt(v dt) below the continuously
    reflected one (Broadie, Glasserman and Kou 1997), which moves E int W^p by
    E int (W + d)^p - W^p = sum_{j<p} C(p, j) d^(p-j) E int W^j; the left
    Riemann sum of the increasing mean E W(t)^p adds E W(T)^p dt / 2."""
    dt = horizon / n_steps
    shift = 0.5826 * math.sqrt(v * dt)
    monitoring = sum(math.comb(p, j) * shift ** (p - j) * _exact(v, horizon, j) for j in range(p))
    riemann = (v * horizon) ** (p / 2.0) * _abs_normal_moment(p) * dt / 2.0
    return monitoring + riemann


@pytest.mark.parametrize("v, horizon, seed", [(1.0, 1.0, 31), (0.3, 4.0, 32),
                                              (2.5, 0.5, 33), (0.0222, 100.0, 34)])
def test_monte_carlo_mean_matches_closed_form(v, horizon, seed):
    # E int_0^T W^2 dt = v T^2 / 2 and E int_0^T W^3 dt = v^1.5 E|Z|^3 T^2.5 / 2.5,
    # within 4 standard errors plus the Euler allowance
    n_steps = 400
    w = bm_workload_paths(v, n_steps=n_steps, horizon=horizon, n_paths=8000, seed=seed)
    dt = np.diff(w.grid)
    cubes = np.concatenate([(b[:, :-1] ** 3) @ dt for b in w.blocks()])
    assert _exact(v, horizon, 2) == pytest.approx(0.5 * v * horizon ** 2, rel=1e-14)
    for p, per_path in ((2, w.integral_sq()), (3, cubes)):
        se = per_path.std(ddof=1) / math.sqrt(per_path.size)
        tol = 4.0 * se + _euler_allowance(v, horizon, p, n_steps)
        assert abs(per_path.mean() - _exact(v, horizon, p)) <= tol, (p, per_path.mean(), tol)


def test_integral_sq_memory_stays_within_a_few_blocks():
    # the dense generator peaked at 534 MiB on this 4000 x 2500 set
    tracemalloc.start()
    try:
        bm_workload_paths(0.0222, n_steps=2500, horizon=100.0, n_paths=4000, seed=0).integral_sq()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
