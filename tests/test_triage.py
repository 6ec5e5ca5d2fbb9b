import json
import math
import re
import warnings

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
    load_triage_config,
    quadratic_coefficients,
    reviewer_params,
    total_cost,
)
from pqsched import triage
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
    return PassingCurves([0.0, drop_at, 1.0], [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])


FAST_MC = McParams(n_paths=200, n_steps=100, seed=0)


def queue_cost(z, cfg):
    """One reviewer's queue cost: total_cost's queueing over its Gamma."""
    d = total_cost(z, cfg, FAST_MC)
    return d.queueing / d.gamma


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


def test_ndtr_is_close_to_scipy():
    # 0.5 erfc(-a / sqrt 2) against scipy's Cephes ndtr, on a sweep 200 ulps
    # across each edge where Cephes switches branch (|a / sqrt 2| at sqrt(1/2),
    # 1 and 8) or its erfc underflows (a^2 / 2 past MAXLOG), on both sides of 0
    maxlog = 7.09782712893383996843e2
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * maxlog)]
    steps = np.arange(-200, 201)
    near = np.concatenate([e + steps * np.spacing(e) for e in edges])
    a = np.concatenate([np.linspace(-40.0, 40.0, 400_001), near, -near,
                        [np.inf, -np.inf, np.nan, 0.0, -0.0, 5e-324, 1e200, -1e200]])
    assert a.size == 403_217
    x = np.abs(a) * math.sqrt(0.5)
    for edge in (math.sqrt(0.5), 1.0, 8.0):
        assert np.any(x < edge) and np.any(x >= edge)
    square = x[x < 30.0] ** 2
    assert np.any(square <= maxlog) and np.any(square > maxlog)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = triage._ndtr(a)
    ref = ndtr(a)
    normal = ref >= 1e-300
    assert np.all(np.abs(got[normal] - ref[normal]) <= 1e-13 * ref[normal])
    tiny = ref < 1e-300
    assert np.any(tiny) and np.all(np.abs(got[tiny] - ref[tiny]) <= 1e-310)
    assert triage._ndtr([np.inf, -np.inf]).tolist() == [1.0, 0.0]
    assert np.isnan(triage._ndtr([np.nan])).all()


def erfc_curve_values(locs, scales, grid_size):
    """The gaussian-logit construction, Phi(x) = 0.5 erfc(-x / sqrt 2) entry by entry."""
    grid = np.linspace(0.0, 1.0, grid_size)
    inner = np.clip(grid, 1e-12, 1 - 1e-12)
    logit = np.log(inner) - np.log1p(-inner)
    with np.errstate(over="ignore"):
        x = (np.asarray(locs)[:, None] - logit) / np.asarray(scales)[:, None]
    values = np.array([[0.5 * math.erfc(-v * math.sqrt(0.5)) for v in row] for row in x])
    values[:, 0], values[:, -1] = 1.0, 0.0
    return grid, values


@pytest.mark.parametrize("locs, scales, grid_size", [
    ((-1.0, -3.0), (1.0, 1.0), 1001),     # the README's curves
    ((-1.0, -3.0), (1.0, 1.0), 101),
    ((0.5, -2.0), (0.3, 2.5), 2001),
    ((4.0, -4.0), (0.05, 0.05), 501),     # steep: both tails underflow
    ((-30.0, 30.0), (1.0, 7.0), 11),
])
def test_gaussian_logit_curves_equal_erfc_built_ones(locs, scales, grid_size):
    grid, values = erfc_curve_values(locs, scales, grid_size)
    got = PassingCurves.from_gaussian_logit(locs, scales, grid_size)
    assert np.array_equal(got.grid, grid) and np.array_equal(got.values, values)


def test_subnormal_gaussian_logit_scale_warns_nothing():
    # (loc - logit) / 1e-310 overflows to +-inf, whose Phi is 1 or 0: the
    # curve is the step it was, built without a numpy warning
    locs, scales = (-1.0, 1.0), (1e-310, 1.0)
    _, values = erfc_curve_values(locs, scales, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = PassingCurves.from_gaussian_logit(locs, scales)
    assert np.array_equal(got.values, values)
    assert set(np.unique(got.values[0])) == {0.0, 1.0}


PAIRS = r"need one \(loc, scale\) pair per class"


@pytest.mark.parametrize("locs, scales, match", [
    ((-1.0,), (1.0,), PAIRS),
    ((-1.0, -3.0, 0.0), (1.0, 1.0, 1.0), PAIRS),
    ((-1.0, -3.0), (1.0,), PAIRS),
    ((-1.0, -3.0), (0.0, 1.0), "scales must be positive"),
    ((-1.0, -3.0), (1.0, -0.0), "scales must be positive"),
    ((-1.0, -3.0), (-1.0, 1.0), "scales must be positive"),
])
def test_gaussian_logit_refusals(locs, scales, match):
    with pytest.raises(ConfigError, match=match):
        PassingCurves.from_gaussian_logit(locs, scales)


def test_curve_validation():
    with pytest.raises(ConfigError):
        PassingCurves([0.0, 1.0], [[0.9, 0.0], [1.0, 0.0]])  # g(0) != 1
    with pytest.raises(ConfigError):
        PassingCurves([0.0, 0.5, 1.0], [[1.0, 0.2, 0.4], [1.0, 1.0, 0.0]])    # increases
    with pytest.raises(ConfigError):
        PassingCurves([0.1, 1.0], [[1.0, 0.0], [1.0, 0.0]])  # bad grid
    with pytest.raises(ConfigError):
        PassingCurves([0.0, 1.0], [[1.0, -0.2], [1.0, 0.0]])


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
    zs = np.linspace(0.0, 1.0, 21)
    gammas = total_cost((zs, zs), cfg, FAST_MC).gamma
    assert gammas[0] == pytest.approx(400.0, abs=1e-9)
    assert np.all(np.diff(gammas) <= 1e-12)
    assert gammas[-1] == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize("overrides, message", [
    # Lambda ** 3 in the variance rate, and 2 / Lambda^2 in the default alpha_u
    (dict(Lambda=1e103), "NonFinite: Lambda = 1e+103 (its cube, a term of the workload "
                         "variance rate, overflows)"),
    (dict(Lambda=1e160), "NonFinite: Lambda = 1e+160 (its cube"),
    # the default alpha_v = 2 / mu^2 is inf
    (dict(mu=(1e-160, 200.0)), "NonFinite: alpha_v = [inf, 5e-05] (its exponential default "
                               "overflows)"),
    (dict(Lambda=1e-200), "NonFinite: alpha_u = inf (its exponential default overflows)"),
])
def test_overflowing_moments_name_their_field(overrides, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no raw numpy warning either
        with pytest.raises(ConfigError, match="^" + re.escape(message)):
            make_triage(**overrides)


@pytest.mark.parametrize("overrides, field", [
    (dict(alpha_u=1e-12), "alpha_u = 1e-12 is below its law's squared mean 1/Lambda^2 = 4e-10"),
    (dict(alpha_u=4e-10, alpha_v=(3.9e-4, 1e-4)), "alpha_v[0] = 0.00039 is below its law's "
                                                  "squared mean 1/mu[0]^2 = 0.0004"),
    (dict(alpha_u=4e-10, alpha_v=(4e-4, 2e-5)), "alpha_v[1] = 2e-05 is below"),
    (dict(alpha_u=-1.0), "alpha_u = -1.0 is below"),
    (dict(Lambda=1e-200, alpha_u=1.0), "alpha_u = 1.0 is below its law's squared mean "
                                       "1/Lambda^2 = inf"),
])
def test_second_moment_below_squared_mean_is_refused(overrides, field):
    with pytest.raises(ConfigError, match="^" + re.escape(field)):
        make_triage(**overrides)


def test_deterministic_moments_are_accepted():
    # a deterministic law's own E[X^2] = 1/rate^2, however it rounds
    for lam, mu in ((3.0, (7.0, 0.3)), (49999.0, (51.0, 199.0)), (0.1, (1e-3, 1e5))):
        cfg = make_triage(Lambda=lam, mu=mu, alpha_u=1.0 / lam ** 2,
                          alpha_v=tuple(1.0 / m / m for m in mu))
        assert cfg.alpha_u == 1.0 / lam ** 2


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
    curves = PassingCurves([0.0, 0.4, 1.0], [[1.0, 0.0, 0.0], [1.0, 0.8, 0.0]])
    cfg = make_triage(curves=curves)
    params = reviewer_params((0.6, 0.7), cfg)
    assert params.q[0] == pytest.approx([0.0, 1.0])
    assert params.p_mix == pytest.approx([0.0, 1.0])


# ------------------------------------------------------------- cost parts

def test_filtering_cost_closed_form():
    cfg = make_triage()
    filtering = total_cost(([0.0, 1.0, 0.3], [0.0, 1.0, 0.3]), cfg, FAST_MC).filtering
    assert filtering[0] == pytest.approx(0.0, abs=1e-9)
    # full filtering trades c_trp on toxic mass against c_trn credit
    full = cfg.Lambda * (cfg.c_trp * 0.2 + cfg.c_trn * 0.8)
    assert filtering[1] == pytest.approx(full, rel=1e-12)
    z = 0.3
    expect = cfg.Lambda * (20.0 * 0.2 * (1.0 - cfg.curves.g(0, z))
                           + (-3.0) * 0.8 * (1.0 - cfg.curves.g(1, z)))
    assert filtering[2] == pytest.approx(expect, rel=1e-12)


def test_misclass_cost_corner_and_symmetry():
    cfg = make_triage()
    z = 0.25
    g0, g1 = cfg.curves.g(0, z), cfg.curves.g(1, z)
    # z_tx = z_fl: all passers labeled toxic -> only c_tp and c_fp terms
    expect = cfg.Lambda * (0.2 * g0 * cfg.c_tp + 0.8 * g1 * cfg.c_fp)
    assert total_cost((z, z), cfg, FAST_MC).misclassification == pytest.approx(expect, rel=1e-12)
    # with c_tp = c_fn and c_fp = c_tn the rate cannot depend on z_tx
    flat = make_triage(c_fn=-3.0, c_tn=3.0)
    a, b = total_cost(([z, z], [0.4, 0.9]), flat, FAST_MC).misclassification
    assert a == pytest.approx(b, rel=1e-12)


def test_reviewer_variance_zero_for_deterministic_unsplit():
    # Lambda = 1 with unit service rates: Gamma(0) = 1, so the single
    # reviewer keeps the whole stream (no splitting noise), and
    # deterministic moments remove the rest.
    curves = PassingCurves([0.0, 1.0], [[1.0, 1.0], [1.0, 0.5]])
    cfg = make_triage(Lambda=1.0, p=(0.5, 0.5), mu=(1.0, 1.0), curves=curves,
                      alpha_u=1.0, alpha_v=(1.0, 1.0))
    assert reviewer_params((0.0, 0.0), cfg).variance_rate == pytest.approx(0.0, abs=1e-12)
    assert queue_cost((0.0, 0.5), cfg) == pytest.approx(0.0, abs=1e-12)


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
    assert params.variance_rate == pytest.approx(expect, rel=1e-12)
    assert expect > 0.0


def test_reviewer_queue_cost_factorization():
    cfg = make_triage()
    z = (0.3, 0.5)
    got = queue_cost(z, cfg)
    params = reviewer_params(z, cfg)
    coeff = quadratic_coefficients(reviewer_system_config(params, cfg)).jstar_coeff
    unit = got / (coeff * 0.5 * params.variance_rate)
    # the workload factor is the same unit-RBM mean for any thresholds
    other = queue_cost((0.1, 0.7), cfg)
    params2 = reviewer_params((0.1, 0.7), cfg)
    coeff2 = quadratic_coefficients(reviewer_system_config(params2, cfg)).jstar_coeff
    assert other / (coeff2 * 0.5 * params2.variance_rate) == pytest.approx(unit, rel=1e-12)
    assert got > 0.0


# ------------------------------------------------------------- total cost

def test_total_cost_breakdown_sums():
    cfg = make_triage()
    d = total_cost((0.3, 0.5), cfg, FAST_MC)
    assert d.total == pytest.approx(
        d.filtering + d.hiring + d.misclassification + d.queueing, rel=1e-14)
    assert d.hiring == pytest.approx(cfg.c_r * d.gamma, rel=1e-12)
    assert d.gamma == reviewer_params((0.3, 0.5), cfg).gamma
    assert d.z_fl == 0.3 and d.z_tx == 0.5


def test_total_cost_fully_filtered():
    cfg = make_triage(curves=step_curves(0.5))
    d = total_cost((0.75, 0.8), cfg, FAST_MC)
    assert d.gamma == 0.0
    assert d.hiring == 0.0 and d.misclassification == 0.0 and d.queueing == 0.0
    # nothing passes the step at 0.5: every item is filtered
    full = cfg.Lambda * (cfg.c_trp * 0.2 + cfg.c_trn * 0.8)
    assert d.total == d.filtering == pytest.approx(full, rel=1e-12)


def test_threshold_validation():
    cfg = make_triage()
    with pytest.raises(ConfigError):
        total_cost((0.6, 0.4), cfg, FAST_MC)     # z_tx < z_fl
    with pytest.raises(ConfigError):
        total_cost((-0.1, 0.5), cfg, FAST_MC)
    with pytest.raises(ConfigError):
        total_cost((0.2, 1.4), cfg, FAST_MC)


def test_triage_entries_validate_z_fl():
    cfg = make_triage()
    for fn, args in ((reviewer_params, (cfg,)), (total_cost, (cfg, FAST_MC))):
        for z_fl in (1.5, -0.2, np.nan, np.array([0.2, 1.5])):
            with pytest.raises(ConfigError):
                fn((z_fl, z_fl), *args)


# ------------------------------------------------------------ grid search

def test_evaluate_grid_order_and_feasibility():
    cfg = make_triage()
    grid = [0.4, 0.1, 0.3]
    decisions, skipped = evaluate_grid(cfg, 0.35, grid, FAST_MC)
    # infeasible pair (0.4, 0.35) dropped and counted; results sorted by z_fl
    assert list(zip(decisions.z_fl.tolist(), decisions.z_tx.tolist())) == [(0.1, 0.35),
                                                                           (0.3, 0.35)]
    assert skipped == {"z_tx_below_z_fl": 1, "gamma_below_pass_share": 0}
    with pytest.raises(EmptyGridError):
        evaluate_grid(cfg, 0.05, [0.2, 0.3], FAST_MC)


def test_evaluate_grid_common_random_numbers():
    cfg = make_triage()
    grid = np.linspace(0.05, 0.45, 5)
    a = evaluate_grid(cfg, 0.5, grid, FAST_MC)[0]
    b = evaluate_grid(cfg, 0.5, grid, FAST_MC)[0]
    assert a.total.tolist() == b.total.tolist()


def _argmin(cfg, z_tx, grid):
    """The triage command's argmin: the index of the first point of least total cost."""
    decisions = evaluate_grid(cfg, z_tx, grid, FAST_MC)[0]
    return decisions, int(np.argmin(decisions.total))


def test_grid_argmin_is_the_first_least_total():
    cfg = make_triage()
    grid = np.linspace(0.05, 0.45, 7)
    decisions, best = _argmin(cfg, 0.5, grid)
    assert decisions.total[best] == pytest.approx(min(decisions.total.tolist()))
    # duplicated grid point: the first (equal) entry wins
    dup, best = _argmin(cfg, 0.5, [0.3, 0.3])
    assert best == 0 and dup.z_fl[best] == 0.3


def test_mcparams_defaults():
    mc = McParams()
    assert (mc.n_paths, mc.n_steps, mc.seed) == (2000, 400, 0)


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
    with pytest.raises(ConfigError, match=r"^MissingField: c_r$"):
        triage_config_from_json(doc)


def test_triage_json_optional_moments_null_or_absent():
    # a null where the default is None is the default, as an absent key is
    absent = triage_config_from_json(_triage_doc())
    null = triage_config_from_json({**_triage_doc(), "alpha_u": None, "alpha_v": None})
    assert (null.alpha_u, null.alpha_v) == (absent.alpha_u, absent.alpha_v)
    assert absent.alpha_v == (2.0 / 50.0 ** 2, 2.0 / 200.0 ** 2)


@pytest.mark.parametrize("field, value, expected", [
    ("Lambda", True, "WrongType: Lambda = true (expected a number)"),
    ("p", 0.5, "WrongType: p = 0.5 (expected a list of numbers)"),
    ("p", [[0.2], 0.8], "WrongType: p[0] = [0.2] (expected a number)"),
    ("delay_costs", [{}, 1.0], "WrongType: delay_costs[0] = {} (expected a number)"),
    ("alpha_v", [8e-4, "5e-5"], 'WrongType: alpha_v[1] = "5e-5" (expected a number)'),
    ("curves", [1, 2], "WrongType: curves = [1, 2] (expected an object)"),
    ("curves", {"loc": [-1.0, -3.0]}, "MissingField: curves.kind"),
    ("curves", {"kind": 5}, "WrongType: curves.kind = 5 (expected a string)"),
    ("curves", {"kind": "gaussian_logit", "loc": [-1.0, -3.0]}, "MissingField: curves.scale"),
    ("curves", {"kind": "grid", "z": [0.0, "0.5", 1.0]},
     'WrongType: curves.z[1] = "0.5" (expected a number)'),
    ("curves", {"kind": "grid", "z": [0.0, 1.0], "g_toxic": [1.0, 0.0], "g_nontoxic": [1.0]},
     "curve values must be shaped (2, len(grid))"),
])
def test_triage_json_field_missing_or_of_wrong_type(field, value, expected):
    with pytest.raises(ConfigError) as err:
        triage_config_from_json({**_triage_doc(), field: value})
    assert str(err.value) == expected


@pytest.mark.parametrize("grid_size, points", [(100, 100), (100.0, 100), (100.7, None),
                                               ("50", None), (True, None)])
def test_gaussian_logit_grid_size_is_an_integer(grid_size, points):
    doc = _triage_doc()
    doc["curves"]["grid_size"] = grid_size
    if points is None:
        with pytest.raises(ConfigError) as err:
            triage_config_from_json(doc)
        assert str(err.value) == (f"WrongType: curves.grid_size = {json.dumps(grid_size)} "
                                  "(expected an integer)")
    else:
        assert triage_config_from_json(doc).curves.grid.size == points


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
    assert reviewer_params((0.0, 0.0), cfg).gamma == pytest.approx(400.0)


GRID_CURVES = {"kind": "grid", "z": [0.0, 0.5, 1.0],
               "g_toxic": [1.0, 0.4, 0.0], "g_nontoxic": [1.0, 0.1, 0.0]}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [
    "Lambda", "p[0]", "mu[0]", "c_trp", "c_trn", "c_fp", "c_fn", "c_tp", "c_tn", "c_r",
    "delay_costs[0]", "alpha_u", "alpha_v[1]",
    "curves.loc[0]", "curves.scale[1]", "curves.z[1]", "curves.g_toxic[1]",
    "curves.g_nontoxic[1]"])
def test_triage_json_non_finite_number_names_its_field(field, value):
    doc = {**_triage_doc(), "alpha_u": 8e-10, "alpha_v": [8e-4, 5e-5]}
    name, _, index = field.partition("[")
    *parent, key = name.split(".")
    if parent and key in GRID_CURVES:
        doc["curves"] = json.loads(json.dumps(GRID_CURVES))
    target = doc[parent[0]] if parent else doc
    if index:
        target[key][int(index[0])] = value
    else:
        target[key] = value
    doc = json.loads(json.dumps(doc))   # json reads NaN and Infinity tokens
    with pytest.raises(ConfigError, match=re.escape(f"NonFinite: {name} = ")):
        triage_config_from_json(doc)
