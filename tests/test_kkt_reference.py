"""The array KKT solver against the scalar and nested references, and its input contract."""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import pqsched
from pqsched import (
    BracketFailureError,
    ConfigError,
    ConfusionMatrix,
    CostFn,
    SystemConfig,
    config_to_json,
    derive_predicted_params,
    httheory,
    kkt_solve,
)
from pqsched.model import write_json
import reference_kkt
from conftest import make_two_class
from helpers import ten_class_config
from reference_mixture import MixtureCost


def _random_system(rng, K, powers):
    return SystemConfig(
        lam=rng.uniform(0.5, 5.0),
        prevalences=rng.dirichlet(np.ones(K) * 2.0),
        service_rates=rng.uniform(0.5, 10.0, K),
        costs=tuple(CostFn(c, pw) for c, pw in zip(rng.uniform(0.5, 5.0, K), powers)),
        confusion=ConfusionMatrix(rng.dirichlet(np.ones(K) * 1.5, size=K)))


@st.composite
def kkt_cases(draw):
    K = draw(st.integers(1, 4))
    powers = draw(st.lists(st.sampled_from([2.0, 2.5, 3.0]), min_size=K, max_size=K))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-2, 50.0)),
                       min_size=1, max_size=6))
    return _random_system(rng, K, powers), np.array(rs)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kkt_cases())
def test_array_solve_matches_reference(case):
    cfg, rs = case
    params = derive_predicted_params(cfg)
    batch = kkt_solve(rs, cfg)
    assert batch.x.shape == rs.shape + (cfg.n_classes,)
    assert batch.objective.shape == rs.shape
    for i, r in enumerate(rs):
        ref = reference_kkt.kkt_solve(float(r), params, cfg.costs)
        assert np.max(np.abs(batch.x[i] - ref.x)) <= 1e-10 * r
        assert abs(batch.objective[i] - ref.objective) <= 1e-10 * abs(ref.objective)
        # a point's split does not depend on the points solved with it
        one = kkt_solve(r, cfg)
        assert isinstance(one.objective, float) and one.r == r
        assert np.array_equal(one.x, batch.x[i])
        assert one.objective == batch.objective[i]


def test_row_blocks_do_not_change_the_split(monkeypatch):
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    rs = np.random.default_rng(5).uniform(0.0, 3.0, (4, 7))
    rs[1, 2] = 0.0
    whole = kkt_solve(rs, cfg)
    monkeypatch.setattr(httheory, "_KKT_BLOCK", 3)
    blocked = kkt_solve(rs, cfg)
    assert np.array_equal(whole.x, blocked.x)
    assert np.array_equal(whole.objective, blocked.objective)
    assert np.array_equal(whole.x.sum(axis=-1) == 0.0, rs == 0.0)


@pytest.mark.parametrize("r", [1e-8, 1e-4, 1e-150, 1e-100, 1e-50, 1e-20, 1e-12, 1.0, 1e4])
def test_small_workload_marginal_balance(r):
    # criterion 2's 100 random instances, solved at workloads from tiny to
    # large, where an absolute root-finding tolerance would swamp the shares
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(K) * 2.0)
        mu = rng.uniform(0.5, 10.0, K)
        lam = rng.uniform(0.5, 5.0)
        coeff = rng.uniform(0.5, 5.0, K)
        power = rng.choice([2.0, 2.5, 3.0], K)
        Q = rng.dirichlet(np.ones(K) * 1.5, size=K)
        cfg = SystemConfig(
            lam=lam, prevalences=p, service_rates=mu,
            costs=tuple(CostFn(c, pw) for c, pw in zip(coeff, power)),
            confusion=ConfusionMatrix(Q))
        rng.uniform(0.2, 3.0)  # criterion 2's workload draw, kept for the stream
        alloc = kkt_solve(r, cfg)
        worst = max(worst, _marginal_spread(cfg, alloc.x))
        assert alloc.x.sum() == pytest.approx(r, rel=1e-12, abs=0.0)
    assert worst <= 1e-12


def _marginal_spread(cfg, x):
    """(max - min) / mean over labels l of the marginal value mu~_l C~'_l(x_l / rho~_l)."""
    params = derive_predicted_params(cfg)
    marg = np.array([params.mu_tilde[l] * MixtureCost(params.mix_weights[:, l], cfg.costs)
                     .prime(x[l] / params.rho_tilde[l]) for l in range(cfg.n_classes)])
    return (marg.max() - marg.min()) / marg.mean()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kkt_cases())
def test_joint_newton_matches_nested_level_solve(case):
    # the array oracle: the Newton on the common level, inverting every
    # label's marginal cost with another Newton at each step, that kkt_solve
    # ran before one joint Newton on the split and the level
    cfg, rs = case
    rs = rs[rs > 0.0]
    assume(cfg.n_classes > 1 and rs.size > 0)
    x = kkt_solve(rs, cfg).x.T
    assert np.all(np.abs(x - reference_kkt.level_shares(rs, cfg)) <= 1e-12 * np.maximum(1.0, rs))


def _ten_class_mixed():
    """The benchmark's ten-class system with powers 2, 2.5, 3, 2, 2.5, ... by class,
    so two labels (classes 4 and 5's) have no quadratic term."""
    cfg = ten_class_config()
    return replace(cfg, costs=tuple(CostFn(c.coeff, (2.0, 2.5, 3.0)[k % 3])
                                    for k, c in enumerate(cfg.costs)))


_TEN_CLASS_RS = (1e-150, 1e-12, 1e-4, 0.3, 1.0, 10.0, 1e4)


@pytest.mark.parametrize("r", _TEN_CLASS_RS)
def test_ten_class_mixed_powers(r):
    cfg = _ten_class_mixed()
    alloc = kkt_solve(r, cfg)
    ref = reference_kkt.kkt_solve(r, derive_predicted_params(cfg), cfg.costs)
    assert np.max(np.abs(alloc.x - ref.x)) <= 1e-10 * r
    assert _marginal_spread(cfg, alloc.x) <= 1e-12
    assert alloc.x.sum() == pytest.approx(r, rel=1e-12, abs=0.0)
    batch = kkt_solve(np.array(_TEN_CLASS_RS), cfg)
    assert np.array_equal(batch.x[_TEN_CLASS_RS.index(r)], alloc.x)


def test_tiny_workload_split_sums_to_it():
    # the residual check was KKT_TOL max(1, r), absolute below r = 1, and the
    # nested level solve split r = 1e-300 into zeros (its level underflowed);
    # every accepted split now sums to r within KKT_TOL r
    alloc = kkt_solve(1e-300, _ten_class_mixed())
    assert np.all(alloc.x >= 0.0) and alloc.x.max() > 0.0
    assert abs(alloc.x.sum() - 1e-300) <= httheory.KKT_TOL * 1e-300


@pytest.mark.parametrize("r", [1e-300, 1e-12, 0.3, 1e4])
def test_split_off_its_workload_is_refused(monkeypatch, r):
    # a split that misses r by 1e-9 r, beside one that does not, names r
    solve = httheory._joint_newton

    def newton(rs, *args):
        return solve(rs, *args) * np.where(rs == r, 1.0 - 1e-9, 1.0)

    monkeypatch.setattr(httheory, "_joint_newton", newton)
    with pytest.raises(BracketFailureError, match=f"at workload {r}$"):
        kkt_solve(np.array([2.0, r]), _ten_class_mixed())


def test_unconverged_split_is_refused(monkeypatch):
    monkeypatch.setattr(httheory, "_KKT_MAX_ITER", 1)
    with pytest.raises(BracketFailureError, match="did not converge in 1 steps at workload 0.3$"):
        kkt_solve(0.3, _ten_class_mixed())


@pytest.mark.parametrize("costs", [(CostFn(1.0), CostFn(10.0)),
                                   (CostFn(1.0), CostFn(10.0, power=3.0))],
                         ids=["common-power", "mixed-power"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
def test_kkt_rejects_bad_workloads(costs, bad):
    cfg = make_two_class(costs=costs)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        kkt_solve(bad, cfg)
    with pytest.raises(ConfigError, match="finite and nonnegative"):
        kkt_solve(np.array([[0.5, 1.0], [bad, 2.0]]), cfg)


@pytest.mark.parametrize("powers", [(2.0, 3.0), (1.5, 3.0), (1.2, 1.8), (2.5, 6.0)])
def test_mixture_prime_inv_newton(powers):
    # powers below 2 make C~' concave somewhere, so Newton from above would
    # overshoot without its bracket
    mix = MixtureCost((0.3, 0.7), (CostFn(2.0, powers[0]), CostFn(3.0, powers[1])))
    y = np.concatenate([[0.0, -1.0], np.logspace(-12, 12, 49)])
    t = reference_kkt.newton_prime_inv(mix, y)
    assert t.shape == y.shape
    assert t[0] == 0.0 and t[1] == 0.0
    assert np.allclose(mix.prime(t[2:]), y[2:], rtol=1e-13, atol=0.0)
    ref = [reference_kkt.prime_inv(mix, v) for v in y[2:]]
    assert np.allclose(t[2:], ref, rtol=1e-9, atol=1e-14)
    assert np.array_equal(t, [reference_kkt.newton_prime_inv(mix, v) for v in y])


# prime_inv at levels 1e-12, 1e-8, ..., 1e12, recorded when kkt_solve still
# bisected on a pivot share; the level-solve oracle reuses prime_inv's Newton
# loop, moved from MixtureCost, and must not move a bit of it
_PRIME_INV_BITS = {
    ((0.3, 0.7), ((2.0, 2.0), (3.0, 3.0))): [
        1.6666666666569446e-12, 1.6666665694444556e-08, 0.00016656955770522728,
        0.5618404089023211, 68.86384666241115, 6900.512737759397, 690065.4164852261],
    ((0.6, 0.4), ((1.0, 1.5), (10.0, 3.0))): [
        2.777777777777777e-24, 2.777777777777778e-16, 2.7777777776063105e-08,
        0.3946715860015218, 49.989393398341875, 4999.998939339828, 499999.99989393394],
    ((0.2, 0.5, 0.3), ((4.0, 2.0), (0.5, 2.5), (2.0, 6.0))): [
        1.2499995632682019e-12, 1.2499563290859928e-08, 0.00012456554288958266,
        0.7933884016747424, 6.986844090084503, 44.09300074540271, 278.20808688327253],
}


@pytest.mark.parametrize("weights, costs", list(_PRIME_INV_BITS), ids=["2-3", "1.5-3", "2-2.5-6"])
def test_mixture_prime_inv_bits_are_pinned(weights, costs):
    mix = MixtureCost(weights, tuple(CostFn(c, pw) for c, pw in costs))
    t = reference_kkt.newton_prime_inv(mix, np.logspace(-12, 12, 7))
    assert t.tolist() == _PRIME_INV_BITS[weights, costs]


# a cold start: import the package and the CLI, then load a system config
# from each path before "--triage" and a triage config from each path after
_COLD_START = """
import json, sys
import pqsched, pqsched.cli
cut = sys.argv.index("--triage")
for path in sys.argv[1:cut]:
    pqsched.load_config(path)
for path in sys.argv[cut + 1:]:
    pqsched.load_triage_config(path)
print(json.dumps({name: name in sys.modules for name in
                  ("scipy", "scipy.optimize", "concurrent.futures", "multiprocessing")}))
"""


def test_import_leaves_scipy_optimize_out(tmp_path):
    # no pqsched module imports scipy, so loading configs loads no scipy;
    # gaussian_logit curves take Phi from the C library's erfc (math.erfc)
    exponential, deterministic = tmp_path / "exponential.json", tmp_path / "deterministic.json"
    write_json(exponential, config_to_json(make_two_class()))
    write_json(deterministic, config_to_json(
        make_two_class(arrival_dist="deterministic", service_dist="deterministic")))
    triage = {"Lambda": 100.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
              "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0,
              "c_tn": -3.0, "c_r": 800.0, "delay_costs": [15.0, 1.0]}
    grid, gaussian = tmp_path / "grid.json", tmp_path / "gaussian_logit.json"
    grid.write_text(json.dumps({**triage, "curves": {
        "kind": "grid", "z": [0.0, 0.5, 1.0], "g_toxic": [1.0, 0.9, 0.0],
        "g_nontoxic": [1.0, 0.2, 0.0]}}))
    gaussian.write_text(json.dumps({**triage, "curves": {
        "kind": "gaussian_logit", "loc": [-1.0, -3.0], "scale": [1.0, 1.0]}}))
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", _COLD_START, str(exponential),
                          str(deterministic), "--triage", str(grid), str(gaussian)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == {"scipy": False, "scipy.optimize": False,
                               "concurrent.futures": False, "multiprocessing": False}
