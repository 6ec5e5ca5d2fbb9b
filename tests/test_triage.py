import json
import math

import numpy as np
import pytest
from scipy.special import ndtr

from pqsched import (
    ConfigError,
    EmptyClassError,
    EmptyGridError,
    EmptyPassError,
    McParams,
    PassingCurves,
    TriageConfig,
    evaluate_grid,
    filtering_cost_rate,
    load_triage_config,
    misclass_cost_rate,
    quadratic_coefficients,
    reviewer_params,
    reviewer_queue_cost,
    reviewer_variance_rate,
    staffing,
    total_cost,
)
from pqsched.triage import curves_from_json, triage_config_from_json
from helpers import reviewer_system_config

GAUSS_CURVES = PassingCurves.from_gaussian_logit((-1.0, -3.0), (1.0, 1.0))


def make_triage(**overrides) -> TriageConfig:
    kwargs = dict(Lambda=50000.0, p=(0.2, 0.8), mu=(50.0, 200.0),
                  curves=GAUSS_CURVES, c_trp=20.0, c_trn=-3.0,
                  c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                  c_r=800.0, delay_costs=(15.0, 1.0))
    kwargs.update(overrides)
    return TriageConfig(**kwargs)


def step_curves(drop_at=0.5):
    # pass rate 1 below the step, 0 at and beyond it
    return PassingCurves.from_grid([0.0, drop_at, 1.0],
                                   [1.0, 0.0, 0.0], [1.0, 0.0, 0.0])


FAST_MC = McParams(n_paths=200, n_steps=100, seed=0, horizon=1.0)


# ----------------------------------------------------------------- curves

def test_gaussian_logit_curve_values():
    c = GAUSS_CURVES
    assert c.g(0, 0.0) == 1.0 and c.g(0, 1.0) == 0.0
    assert c.g(1, 0.0) == 1.0 and c.g(1, 1.0) == 0.0
    # score >= 1/2 iff the latent normal is >= 0: g_k(0.5) = Phi(loc_k / scale_k)
    assert c.g(0, 0.5) == pytest.approx(float(ndtr(-1.0)), abs=1e-6)
    assert c.g(1, 0.5) == pytest.approx(float(ndtr(-3.0)), abs=1e-6)
    zs = np.linspace(0.0, 1.0, 97)
    for k in range(2):
        vals = c.g(k, zs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
    # the sharper curve passes less non-toxic mass at every interior z
    assert np.all(c.g(1, zs[1:-1]) < c.g(0, zs[1:-1]))


def test_curve_validation():
    with pytest.raises(ConfigError):
        PassingCurves.from_grid([0.0, 1.0], [0.9, 0.0], [1.0, 0.0])  # g(0) != 1
    with pytest.raises(ConfigError):
        PassingCurves.from_grid([0.0, 0.5, 1.0],
                                [1.0, 0.2, 0.4], [1.0, 1.0, 0.0])    # increases
    with pytest.raises(ConfigError):
        PassingCurves.from_grid([0.1, 1.0], [1.0, 0.0], [1.0, 0.0])  # bad grid
    with pytest.raises(ConfigError):
        PassingCurves.from_grid([0.0, 1.0], [1.0, -0.2], [1.0, 0.0])


def test_from_samples_empirical_rule():
    c = PassingCurves.from_samples([0.2, 0.8], [0.99, 0.99])
    assert c.g(0, 0.5) == pytest.approx(0.5)
    assert c.g(0, 0.2) == pytest.approx(1.0)     # ties count as passing
    assert c.g(0, 0.81) == pytest.approx(0.0)
    assert c.g(1, 0.99) == pytest.approx(1.0)
    with pytest.raises(EmptyClassError):
        PassingCurves.from_samples([], [0.5])


def test_from_samples_concentrates_to_truth(rng):
    # 4000 draws from the score model behind the analytic curves: the
    # empirical curve sits inside a DKW band around the true one
    n = 4000
    scores0 = 1.0 / (1.0 + np.exp(-(rng.standard_normal(n) * 1.0 - 1.0)))
    scores1 = 1.0 / (1.0 + np.exp(-(rng.standard_normal(n) * 1.0 - 3.0)))
    emp = PassingCurves.from_samples(scores0, scores1, grid_size=201)
    eps = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))   # ~0.0426
    zs = np.linspace(0.01, 0.99, 99)
    for k in range(2):
        assert np.max(np.abs(emp.g(k, zs) - GAUSS_CURVES.g(k, zs))) < eps


# --------------------------------------------------------------- staffing

def test_staffing_reference_value():
    # Lambda p / mu = (10000/50, 40000/200) -> Gamma(0) = 200 + 200 = 400
    cfg = make_triage()
    assert staffing(0.0, cfg) == pytest.approx(400.0, abs=1e-9)
    zs = np.linspace(0.0, 1.0, 21)
    gammas = [staffing(z, cfg) for z in zs]
    assert all(b <= a + 1e-12 for a, b in zip(gammas, gammas[1:]))
    assert staffing(1.0, cfg) == pytest.approx(0.0, abs=1e-12)


def test_triage_config_validation():
    with pytest.raises(ConfigError):
        make_triage(c_trp=-1.0)
    with pytest.raises(ConfigError):
        make_triage(c_trn=0.5)
    with pytest.raises(ConfigError):
        make_triage(c_r=0.0)
    with pytest.raises(ConfigError):
        make_triage(delay_costs=(15.0, -1.0))
    with pytest.raises(ConfigError):
        make_triage(p=(0.2, 0.7))
    with pytest.raises(ConfigError):
        make_triage(Lambda=0.0)


def test_default_moments_are_exponential():
    cfg = make_triage()
    assert cfg.alpha_u == pytest.approx(2.0 / 50000.0 ** 2)
    assert cfg.alpha_v == pytest.approx((2.0 / 50.0 ** 2, 2.0 / 200.0 ** 2))


# -------------------------------------------------------- reviewer params

def test_reviewer_params_threshold_corner():
    cfg = make_triage()
    params = reviewer_params((0.3, 0.3), cfg)
    # z_tx = z_fl: every passer is labeled toxic
    assert np.allclose(params.q, [[1.0, 0.0], [1.0, 0.0]])
    assert params.p_mix == pytest.approx(
        np.array([0.2 * cfg.curves.g(0, 0.3), 0.8 * cfg.curves.g(1, 0.3)])
        / params.pass_prob)
    assert params.pass_prob == pytest.approx(
        0.2 * cfg.curves.g(0, 0.3) + 0.8 * cfg.curves.g(1, 0.3))


def test_reviewer_intensity_identity():
    # the staffing rule pins every reviewer's offered load at exactly 1
    cfg = make_triage()
    mu = np.asarray(cfg.mu)
    for z_fl in (0.05, 0.2, 0.42, 0.7):
        params = reviewer_params((z_fl, max(z_fl, 0.5)), cfg)
        intensity = params.lam_r * float(params.p_mix @ (1.0 / mu))
        assert intensity == pytest.approx(1.0, rel=1e-12)


def test_reviewer_system_config_is_critical():
    cfg = make_triage()
    params = reviewer_params((0.3, 0.5), cfg)
    sys_cfg = reviewer_system_config(params, cfg, horizon=2.0)
    assert sys_cfg.rho == pytest.approx(1.0, rel=1e-12)
    assert sys_cfg.horizon == 2.0
    assert [c.coeff for c in sys_cfg.costs] == [15.0, 1.0]
    assert np.allclose(sys_cfg.confusion.entries.sum(axis=1), 1.0)


def test_reviewer_params_empty_pass():
    cfg = make_triage(curves=step_curves(0.5))
    with pytest.raises(EmptyPassError):
        reviewer_params((0.75, 0.8), cfg)


def test_never_passing_class_row_pinned():
    # only non-toxic content passes: toxic row has no arrivals and is pinned
    curves = PassingCurves.from_grid([0.0, 0.4, 1.0],
                                     [1.0, 0.0, 0.0], [1.0, 0.8, 0.0])
    cfg = make_triage(curves=curves)
    params = reviewer_params((0.6, 0.7), cfg)
    assert params.q[0] == pytest.approx([0.0, 1.0])
    assert params.p_mix == pytest.approx([0.0, 1.0])


# ------------------------------------------------------------- cost parts

def test_filtering_cost_closed_form():
    cfg = make_triage()
    assert filtering_cost_rate(0.0, cfg) == pytest.approx(0.0, abs=1e-9)
    # full filtering trades c_trp on toxic mass against c_trn credit
    full = cfg.Lambda * (cfg.c_trp * 0.2 + cfg.c_trn * 0.8)
    assert filtering_cost_rate(1.0, cfg) == pytest.approx(full, rel=1e-12)
    z = 0.3
    expect = cfg.Lambda * (20.0 * 0.2 * (1.0 - cfg.curves.g(0, z))
                           + (-3.0) * 0.8 * (1.0 - cfg.curves.g(1, z)))
    assert filtering_cost_rate(z, cfg) == pytest.approx(expect, rel=1e-12)


def test_misclass_cost_corner_and_symmetry():
    cfg = make_triage()
    z = 0.25
    g0, g1 = cfg.curves.g(0, z), cfg.curves.g(1, z)
    # z_tx = z_fl: all passers labeled toxic -> only c_tp and c_fp terms
    expect = cfg.Lambda * (0.2 * g0 * cfg.c_tp + 0.8 * g1 * cfg.c_fp)
    assert misclass_cost_rate((z, z), cfg) == pytest.approx(expect, rel=1e-12)
    # with c_tp = c_fn and c_fp = c_tn the rate cannot depend on z_tx
    flat = make_triage(c_fn=-3.0, c_tn=3.0)
    a = misclass_cost_rate((z, 0.4), flat)
    b = misclass_cost_rate((z, 0.9), flat)
    assert a == pytest.approx(b, rel=1e-12)


def test_reviewer_variance_zero_for_deterministic_unsplit():
    # Lambda = 1 with unit service rates: Gamma(0) = 1, so the single
    # reviewer keeps the whole stream (no splitting noise), and
    # deterministic moments remove the rest.
    curves = PassingCurves.from_grid([0.0, 1.0], [1.0, 1.0], [1.0, 0.5])
    cfg = make_triage(Lambda=1.0, p=(0.5, 0.5), mu=(1.0, 1.0), curves=curves,
                      alpha_u=1.0, alpha_v=(1.0, 1.0))
    assert reviewer_variance_rate(0.0, cfg) == pytest.approx(0.0, abs=1e-12)
    assert reviewer_queue_cost((0.0, 0.5), cfg, FAST_MC) == pytest.approx(0.0, abs=1e-12)


def test_reviewer_variance_decomposition():
    cfg = make_triage()
    z_fl = 0.2
    params = reviewer_params((z_fl, z_fl), cfg)
    mu = np.asarray(cfg.mu)
    mean_work = float(params.p_mix @ (1.0 / mu))
    c_v = float(params.p_mix @ np.asarray(cfg.alpha_v)) - mean_work ** 2
    c_u = cfg.alpha_u - 1.0 / cfg.Lambda ** 2
    q_split = params.pass_prob / params.gamma
    expect = (params.lam_r * c_v + mean_work ** 2
              * (q_split ** 2 * cfg.Lambda ** 3 * c_u
                 + cfg.Lambda * q_split * (1.0 - q_split)))
    assert reviewer_variance_rate(z_fl, cfg) == pytest.approx(expect, rel=1e-12)
    assert expect > 0.0


def test_reviewer_queue_cost_factorization():
    cfg = make_triage()
    z = (0.3, 0.5)
    got = reviewer_queue_cost(z, cfg, FAST_MC)
    params = reviewer_params(z, cfg)
    coeff = quadratic_coefficients(reviewer_system_config(params, cfg)).jstar_coeff
    v = reviewer_variance_rate(0.3, cfg)
    unit = got / (coeff * 0.5 * v)
    # the workload factor is the same unit-RBM mean for any thresholds
    other = reviewer_queue_cost((0.1, 0.7), cfg, FAST_MC)
    params2 = reviewer_params((0.1, 0.7), cfg)
    coeff2 = quadratic_coefficients(reviewer_system_config(params2, cfg)).jstar_coeff
    v2 = reviewer_variance_rate(0.1, cfg)
    assert other / (coeff2 * 0.5 * v2) == pytest.approx(unit, rel=1e-12)
    assert got > 0.0


# ------------------------------------------------------------- total cost

def test_total_cost_breakdown_sums():
    cfg = make_triage()
    d = total_cost((0.3, 0.5), cfg, FAST_MC)
    assert d.total == pytest.approx(
        d.filtering + d.hiring + d.misclassification + d.queueing, rel=1e-14)
    assert d.hiring == pytest.approx(cfg.c_r * d.gamma, rel=1e-12)
    assert d.gamma == pytest.approx(staffing(0.3, cfg), rel=1e-12)
    assert d.z_fl == 0.3 and d.z_tx == 0.5


def test_total_cost_fully_filtered():
    cfg = make_triage(curves=step_curves(0.5))
    d = total_cost((0.75, 0.8), cfg, FAST_MC)
    assert d.gamma == 0.0
    assert d.hiring == 0.0 and d.misclassification == 0.0 and d.queueing == 0.0
    assert d.total == pytest.approx(filtering_cost_rate(0.75, cfg), rel=1e-12)


def test_threshold_validation():
    cfg = make_triage()
    with pytest.raises(ConfigError):
        total_cost((0.6, 0.4), cfg, FAST_MC)     # z_tx < z_fl
    with pytest.raises(ConfigError):
        total_cost((-0.1, 0.5), cfg, FAST_MC)
    with pytest.raises(ConfigError):
        total_cost((0.2, 1.4), cfg, FAST_MC)


def test_single_threshold_functions_validate_z_fl():
    # a function of z_fl alone checks it as a (z_fl, z_fl) pair, like total_cost
    cfg = make_triage()
    for fn in (staffing, filtering_cost_rate, reviewer_variance_rate):
        for z_fl in (1.5, -0.2, np.nan, np.array([0.2, 1.5])):
            with pytest.raises(ConfigError):
                fn(z_fl, cfg)


# ------------------------------------------------------------ grid search

def test_evaluate_grid_order_and_feasibility():
    cfg = make_triage()
    grid = [0.4, 0.1, 0.3]
    decisions, skipped = evaluate_grid(cfg, 0.35, grid, FAST_MC)
    # infeasible pair (0.4, 0.35) dropped and counted; results sorted by z_fl
    assert [(d.z_fl, d.z_tx) for d in decisions] == [(0.1, 0.35), (0.3, 0.35)]
    assert skipped == {"z_tx_below_z_fl": 1, "gamma_below_pass_share": 0}
    with pytest.raises(EmptyGridError):
        evaluate_grid(cfg, 0.05, [0.2, 0.3], FAST_MC)


def test_evaluate_grid_common_random_numbers():
    cfg = make_triage()
    grid = np.linspace(0.05, 0.45, 5)
    a = evaluate_grid(cfg, 0.5, grid, FAST_MC)[0]
    b = evaluate_grid(cfg, 0.5, grid, FAST_MC)[0]
    assert [d.total for d in a] == [d.total for d in b]


def _argmin(cfg, z_tx, grid):
    """The triage command's argmin: the first decision of least total cost."""
    return min(evaluate_grid(cfg, z_tx, grid, FAST_MC)[0], key=lambda d: d.total)


def test_grid_argmin_is_the_first_least_total():
    cfg = make_triage()
    grid = np.linspace(0.05, 0.45, 7)
    decisions = evaluate_grid(cfg, 0.5, grid, FAST_MC)[0]
    best = _argmin(cfg, 0.5, grid)
    assert best.total == pytest.approx(min(d.total for d in decisions))
    # duplicated grid point: the first (equal) entry wins
    dup = _argmin(cfg, 0.5, [0.3, 0.3])
    assert dup.z_fl == 0.3


def test_mcparams_defaults():
    mc = McParams()
    assert (mc.n_paths, mc.n_steps, mc.seed, mc.horizon) == (2000, 400, 0, 1.0)


# ------------------------------------------------------------------- JSON

def _triage_doc():
    return {
        "Lambda": 50000.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
        "curves": {"kind": "gaussian_logit", "loc": [-1.0, -3.0],
                   "scale": [1.0, 1.0]},
        "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0,
        "c_tp": -3.0, "c_tn": -3.0, "c_r": 800.0, "delay_costs": [15.0, 1.0],
    }


def test_triage_config_from_json_roundtrip():
    cfg = triage_config_from_json(_triage_doc())
    assert cfg.Lambda == 50000.0
    assert cfg.mu == (50.0, 200.0)
    assert cfg.curves.g(0, 0.5) == pytest.approx(GAUSS_CURVES.g(0, 0.5))
    assert cfg.alpha_u == pytest.approx(2.0 / 50000.0 ** 2)   # default filled
    doc = _triage_doc()
    del doc["c_r"]
    with pytest.raises(ConfigError):
        triage_config_from_json(doc)


def test_curves_from_json_kinds():
    grid_doc = {"kind": "grid", "z": [0.0, 0.5, 1.0],
                "g_toxic": [1.0, 0.4, 0.0], "g_nontoxic": [1.0, 0.1, 0.0]}
    c = curves_from_json(grid_doc)
    assert c.g(0, 0.5) == pytest.approx(0.4)
    with pytest.raises(ConfigError):
        curves_from_json({"kind": "spline"})


def test_load_triage_config(tmp_path):
    target = tmp_path / "triage.json"
    target.write_text(json.dumps(_triage_doc()))
    cfg = load_triage_config(target)
    assert staffing(0.0, cfg) == pytest.approx(400.0)
