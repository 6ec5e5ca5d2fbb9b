import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import optimize as sciopt

from pqsched import (
    ConfigError,
    ConfusionMatrix,
    CostFn,
    NonFiniteMomentError,
    NonQuadraticError,
    PolicyRef,
    WorkloadPathSet,
    bm_workload_paths,
    derive_predicted_params,
    jnaive,
    jstar,
    kkt_solve,
    quadratic_coefficients,
    rank_models,
    relative_regret,
    run_path,
    two_class_xstar,
    workload_variance_rate,
)
from conftest import make_two_class
from helpers import given_paths, kkt_per_path, stack
from reference_rbm import reflect_matrix
from reference_mixture import MixtureCost

IDENTITY = ((1.0, 0.0), (0.0, 1.0))


# ---------------------------------------------------------------- reflect

def reflect(x):
    """The reflection map on one path, as a one-row matrix."""
    return reflect_matrix(np.asarray(x, dtype=float)[None, :])[0]


def test_reflect_worked_example():
    assert np.allclose(reflect([0.0, -1.0, -0.5, -2.5]), [0.0, 0.0, 0.5, 0.0])


def test_reflect_nonnegative_path_unchanged():
    x = [0.0, 0.3, 0.1, 0.8, 0.8]
    assert np.allclose(reflect(x), x)


def test_reflect_pure_drift_pins_to_zero():
    t = np.linspace(0.0, 2.0, 9)
    assert np.allclose(reflect(-t), 0.0)


@given(hnp.arrays(np.float64, st.integers(2, 30),
                  elements=st.floats(-50, 50, allow_nan=False)),
       st.data())
@settings(max_examples=80, deadline=None)
def test_reflect_positive_and_lipschitz(x, data):
    # The one-sided reflection splits as x plus a pushing term.  The pushing
    # term is 1-Lipschitz in the sup norm; the full map is 2-Lipschitz, and
    # the constant 2 is sharp (x=(0,-1,1) vs y=(0,0,0) attains it), so the
    # bound below cannot be tightened.
    x[0] = 0.0
    y = data.draw(hnp.arrays(np.float64, x.shape,
                             elements=st.floats(-50, 50, allow_nan=False)))
    y[0] = 0.0
    rx, ry = reflect(x), reflect(y)
    assert np.all(rx >= -1e-12)
    gap = np.max(np.abs(x - y))
    push_x, push_y = rx - x, ry - y
    assert np.max(np.abs(push_x - push_y)) <= gap + 1e-9
    assert np.max(np.abs(rx - ry)) <= 2.0 * gap + 1e-9


# ---------------------------------------------------------------- moments

def test_moments_closed_forms():
    cfg = make_two_class()
    assert cfg.arrival_dist.second_moment(cfg.lam) == pytest.approx(2.0)   # 2 / lam^2, lam=1
    assert cfg.service_dist.second_moment(cfg.service_rates) == pytest.approx(
        [2.0 / 4.0, 2.0])                                                   # 2 / mu_k^2
    det = make_two_class(arrival_dist="deterministic", service_dist="deterministic")
    assert det.arrival_dist.second_moment(det.lam) == pytest.approx(1.0)
    assert det.service_dist.second_moment(det.service_rates) == pytest.approx([0.25, 1.0])
    logn = make_two_class(service_dist={"family": "lognormal", "sigma": 0.5})
    assert logn.service_dist.second_moment(logn.service_rates) == pytest.approx(
        np.exp(0.25) / np.array([4.0, 1.0]))


@pytest.mark.parametrize("arrival", ["exponential", "deterministic",
                                     {"family": "lognormal", "sigma": 0.6}])
@pytest.mark.parametrize("service", ["exponential", "deterministic",
                                     {"family": "lognormal", "sigma": 0.5},
                                     {"family": "lognormal", "sigma": 0.8}])
def test_simulated_second_moments_match_moments(arrival, service):
    # the simulator's draws and the analytics' moments read one config alike:
    # sample means of U^2 (arrival gaps) and V_k^2 (service column of each
    # true class) sit within 5 standard errors of Dist.second_moment
    cfg = make_two_class(lam=1.0, horizon=1e5, arrival_dist=arrival, service_dist=service)
    path = run_path(cfg, "fcfs", seed=11)
    alpha_v = cfg.service_dist.second_moment(cfg.service_rates)
    samples = [(np.diff(path.arrival_times, prepend=0.0), cfg.arrival_dist.second_moment(cfg.lam))]
    samples += [(path.service[path.true_class == k], alpha_v[k]) for k in range(2)]
    for x, alpha in samples:
        assert len(x) > 25_000
        sq = x ** 2
        stderr = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - alpha) <= 5.0 * stderr + 1e-12 * alpha


def test_variance_rate_mm1():
    # single class, lam = mu = 2: v = 2 / lam = 1
    cfg = make_two_class(lam=2.0, prevalences=(1.0,), service_rates=(2.0,),
                         costs=(CostFn(1.0),), confusion=((1.0,),))
    assert workload_variance_rate(cfg) == pytest.approx(2.0 / 2.0, abs=1e-14)


def test_variance_rate_deterministic_zero():
    # a single class removes the work-mix randomness, so deterministic
    # arrivals and services leave no variance at all
    cfg = make_two_class(lam=2.0, prevalences=(1.0,), service_rates=(2.0,),
                         costs=(CostFn(1.0),), confusion=((1.0,),),
                         arrival_dist="deterministic",
                         service_dist="deterministic")
    assert workload_variance_rate(cfg) == pytest.approx(0.0, abs=1e-14)
    # with several classes the random class label still contributes
    multi = make_two_class(arrival_dist="deterministic",
                           service_dist="deterministic")
    p, mu = np.array([0.3, 0.7]), np.array([2.0, 1.0])
    mix_var = float(p @ (1.0 / mu ** 2)) - float(p @ (1.0 / mu)) ** 2
    assert workload_variance_rate(multi) == pytest.approx(mix_var, rel=1e-12)


def test_variance_rate_plugin_formula(critical_config):
    cfg = critical_config
    lam, p, mu = cfg.lam, np.asarray(cfg.prevalences), np.asarray(cfg.service_rates)
    m_bar = float(p @ (1.0 / mu))
    c_v = float(p @ (2.0 / mu ** 2)) - m_bar ** 2
    c_u = 2.0 / lam ** 2 - 1.0 / lam ** 2
    expect = lam * c_v + lam ** 3 * c_u * m_bar ** 2
    assert workload_variance_rate(cfg) == pytest.approx(expect, rel=1e-14)


def test_variance_rate_overflow_of_a_valid_config():
    # finite moments and lambda^3 (SystemConfig checks both), but lambda c_v = 1e100 * 2e300
    cfg = make_two_class(lam=1e100, service_rates=(1e-150, 1e-150))
    with pytest.raises(NonFiniteMomentError, match="^variance rate overflowed$"):
        workload_variance_rate(cfg)


# --------------------------------------------------------------- BM paths

def test_bm_paths_deterministic_and_shapes():
    w1 = bm_workload_paths(0.5, n_steps=120, horizon=2.0, n_paths=7, seed=42)
    w2 = bm_workload_paths(0.5, n_steps=120, horizon=2.0, n_paths=7, seed=42)
    assert np.array_equal(stack(w1), stack(w2))
    assert stack(w1).shape == (7, 121)
    assert np.array_equal(w1.grid, np.linspace(0.0, 2.0, 121))
    assert np.all(stack(w1) >= 0.0)
    assert np.all(stack(w1)[:, 0] == 0.0)
    assert w1.variance_rate == 0.5
    w3 = bm_workload_paths(0.5, n_steps=120, horizon=2.0, n_paths=7, seed=43)
    assert not np.array_equal(stack(w1), stack(w3))


def test_bm_paths_zero_variance_and_step_floor():
    flat = bm_workload_paths(0.0, n_steps=100, horizon=1.0, n_paths=3, seed=0)
    assert np.all(stack(flat) == 0.0)
    with pytest.raises(ConfigError):
        bm_workload_paths(1.0, n_steps=99, horizon=1.0, n_paths=3, seed=0)


@pytest.mark.parametrize("args, needle", [
    (dict(n_steps=-5), "need n_steps >= 100"),
    (dict(n_steps=-5, variance_rate=math.inf), "need n_steps >= 100"),  # n_steps first
    (dict(variance_rate=math.inf), "NonFinite: variance_rate = inf"),
    (dict(horizon=math.inf), "NonFinite: horizon = inf"),
], ids=["negative-steps", "steps-first", "infinite-variance", "infinite-horizon"])
def test_bm_paths_checks_arguments_before_the_grid(args, needle):
    # a negative count once reached np.linspace (a raw ValueError), and an
    # infinite variance or horizon gave NaN integrals and a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(needle)):
            bm_workload_paths(**(dict(variance_rate=1.0, n_steps=100, horizon=1.0, n_paths=3,
                                      seed=0) | args))


@pytest.mark.parametrize("seed", [-1, 2 ** 128], ids=["-1", "2**128"])
def test_bm_paths_seed_outside_philox_keys(seed):
    # Philox keys are [0, 2**128); numpy's own ValueError is not a PqschedError
    with pytest.raises(ConfigError, match=r"seed .* outside \[0, 2\*\*128\)"):
        bm_workload_paths(1.0, n_steps=100, horizon=1.0, n_paths=3, seed=seed)
    top = bm_workload_paths(1.0, n_steps=100, horizon=1.0, n_paths=3, seed=2 ** 128 - 1)
    assert top.integral_sq().shape == (3,)


@pytest.mark.parametrize("bad", [dict(n_paths=0), dict(variance_rate=-1.0),
                                 dict(variance_rate=math.inf),
                                 dict(grid=np.linspace(0.0, 1.0, 101) ** 2),
                                 dict(grid=np.linspace(0.0, 1.0, 100))])
def test_path_set_built_directly_is_checked(bad):
    # no path (a NaN mean), a negative or infinite variance (NaN integrals), an uneven
    # grid (drawn and integrated with grid[-1]/n_steps steps) and too few steps
    # are refused as bm_workload_paths refuses them
    args = dict(grid=np.linspace(0.0, 1.0, 101), n_paths=3, variance_rate=1.0, seed=0)
    WorkloadPathSet(**args)
    with pytest.raises(ConfigError):
        WorkloadPathSet(**(args | bad))


@pytest.mark.parametrize("horizon", [math.inf, math.nan], ids=["inf", "nan"])
def test_path_set_built_directly_checks_its_horizon_as_bm_paths_does(horizon):
    # an infinite last grid point once reached np.linspace, which warned
    # (invalid value encountered in multiply) before the uneven-grid error
    grid = np.append(np.linspace(0.0, 1.0, 101)[:-1], horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as direct:
            WorkloadPathSet(grid=grid, n_paths=3, variance_rate=1.0, seed=0)
        with pytest.raises(ConfigError) as built:
            bm_workload_paths(1.0, n_steps=100, horizon=horizon, n_paths=3, seed=0)
    want = f"NonFinite: horizon = {horizon} (must be finite)"
    assert str(direct.value) == str(built.value) == want


def test_bm_integral_consistency_across_step_counts():
    # the same functional estimated at two very different resolutions should
    # agree within Monte Carlo noise (independent seeds)
    coarse = bm_workload_paths(1.0, n_steps=1000, horizon=1.0, n_paths=2000, seed=101)
    fine = bm_workload_paths(1.0, n_steps=10000, horizon=1.0, n_paths=2000, seed=202)
    a, b = coarse.integral_sq(), fine.integral_sq()
    se = math.hypot(a.std(ddof=1) / math.sqrt(a.size),
                    b.std(ddof=1) / math.sqrt(b.size))
    assert abs(a.mean() - b.mean()) < 3.0 * se + 0.02 * b.mean()


def test_integral_sq_left_riemann():
    ws = _unit_paths()
    # left Riemann: 0^2 * 0.5 + 2^2 * 0.5
    assert ws.integral_sq() == pytest.approx([2.0])


# -------------------------------------------------------------- KKT solve

def _mixes(cfg):
    params = derive_predicted_params(cfg)
    return params, [MixtureCost(params.mix_weights[:, l], cfg.costs) for l in range(cfg.n_classes)]


def test_kkt_zero_budget(two_class_config):
    alloc = kkt_solve(0.0, two_class_config)
    assert np.allclose(alloc.x, 0.0)
    assert alloc.objective == 0.0
    assert alloc.r == 0.0


def test_kkt_single_class():
    cfg = make_two_class(lam=2.0, prevalences=(1.0,), service_rates=(2.0,),
                         costs=(CostFn(3.0),), confusion=((1.0,),))
    alloc = kkt_solve(1.7, cfg)
    assert alloc.x == pytest.approx([1.7])


def test_kkt_symmetric_split():
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         costs=(CostFn(2.0), CostFn(2.0)),
                         confusion=((0.7, 0.3), (0.3, 0.7)))
    alloc = kkt_solve(1.0, cfg)
    assert alloc.x == pytest.approx([0.5, 0.5], abs=1e-12)


def test_kkt_reference_closed_form():
    # Q = I, r = 1 on (lam=1, p=(0.3,0.7), mu=(2,1), c=(1,10)):
    # a_1 = c_1 mu_1^2 / p_1 = 40/3, a_2 = c_2 mu_2^2 / p_2 = 100/7,
    # x_1 = a_2 / (a_1 + a_2) = 15/29 = 0.51724..., x_2 = 14/29.
    cfg = make_two_class(confusion=IDENTITY)
    params, mixes = _mixes(cfg)
    alloc = kkt_solve(1.0, cfg)
    assert alloc.x == pytest.approx([15.0 / 29.0, 14.0 / 29.0], abs=1e-8)
    # marginal balance holds to near float resolution
    marg = [params.mu_tilde[l] * mixes[l].prime(alloc.x[l] / params.rho_tilde[l])
            for l in range(2)]
    assert abs(marg[0] - marg[1]) <= 1e-8 * max(marg)
    # objective field matches its definition
    direct = sum(params.lambda_tilde[l] * mixes[l](alloc.x[l] / params.rho_tilde[l])
                 for l in range(2))
    assert alloc.objective == pytest.approx(direct, rel=1e-12)


def test_kkt_matches_brute_force_grid(two_class_config):
    params, (mix0, mix1) = _mixes(two_class_config)
    alloc = kkt_solve(1.0, two_class_config)
    x1 = np.arange(0.0, 1.0 + 1e-9, 1e-6)
    obj = (params.lambda_tilde[0] * mix0.coeff / 2.0 * (x1 / params.rho_tilde[0]) ** 2
           + params.lambda_tilde[1] * mix1.coeff / 2.0 * ((1.0 - x1) / params.rho_tilde[1]) ** 2)
    best = x1[int(np.argmin(obj))]
    assert abs(alloc.x[0] - best) <= 2e-6


def test_kkt_matches_slsqp_mixed_powers():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    params, mixes = _mixes(cfg)
    alloc = kkt_solve(1.3, cfg)

    def objective(x):
        return sum(params.lambda_tilde[l] * mixes[l](x[l] / params.rho_tilde[l])
                   for l in range(2))

    res = sciopt.minimize(objective, x0=[0.65, 0.65], method="SLSQP",
                          bounds=[(0.0, 1.3)] * 2,
                          constraints=[{"type": "eq",
                                        "fun": lambda x: x.sum() - 1.3}],
                          options={"ftol": 1e-14, "maxiter": 200})
    assert res.success
    assert alloc.objective <= res.fun + 1e-10
    assert np.allclose(alloc.x, res.x, atol=1e-5)


def test_kkt_rejects_negative_budget(two_class_config):
    with pytest.raises(ConfigError):
        kkt_solve(-0.5, two_class_config)


def test_allocation_monotone_and_continuous_in_r():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    rs = np.linspace(0.0, 2.0, 101)
    xs = np.array([kkt_solve(r, cfg).x for r in rs])
    dx = np.diff(xs, axis=0)
    dr = np.diff(rs)[0]
    assert np.all(dx >= -1e-9)                    # each class grows with r
    assert np.all(dx <= dr * (1.0 + 1e-6))        # 1-Lipschitz per component


# --------------------------------------------------------- two-class x*

def test_two_class_xstar_identity_reduction():
    cfg = make_two_class(confusion=IDENTITY)
    x = two_class_xstar(1.0, cfg)
    assert x == pytest.approx([15.0 / 29.0, 14.0 / 29.0], abs=1e-10)


def test_two_class_xstar_matches_kkt(two_class_config):
    x = two_class_xstar(0.8, two_class_config)
    alloc = kkt_solve(0.8, two_class_config)
    assert x == pytest.approx(alloc.x, abs=1e-8)


def test_two_class_xstar_guards():
    cubic = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    with pytest.raises(NonQuadraticError):
        two_class_xstar(1.0, cubic)
    three = make_two_class(
        lam=1.0, prevalences=(0.3, 0.3, 0.4), service_rates=(2.0, 1.0, 1.0),
        costs=(CostFn(1.0), CostFn(2.0), CostFn(3.0)),
        confusion=ConfusionMatrix.identity(3))
    with pytest.raises(ConfigError):
        two_class_xstar(1.0, three)


# --------------------------------------------- quadratic cost coefficients

def test_quadratic_coefficients_reference(two_class_config):
    # From the reference derivation: mu~ c~ = (1.67/0.275, 5.63/0.575) and
    # rho~ = (0.275, 0.575), so beta_l = mu~_l c~_l / rho~_l:
    beta1 = 1.67 / 0.275 ** 2
    beta2 = 5.63 / 0.575 ** 2
    coeffs = quadratic_coefficients(two_class_config)
    assert coeffs.beta == pytest.approx([beta1, beta2], rel=1e-12)
    assert coeffs.jstar_coeff == pytest.approx(1.0 / (1.0 / beta1 + 1.0 / beta2),
                                               rel=1e-12)
    # naive shares use the label cost coefficients: beta~_l = mu~_l c_l / rho~_l
    params = derive_predicted_params(two_class_config)
    beta_naive = params.mu_tilde * np.array([1.0, 10.0]) / params.rho_tilde
    assert coeffs.beta_naive == pytest.approx(beta_naive, rel=1e-12)
    shares = (1.0 / beta_naive) / (1.0 / beta_naive).sum()
    assert coeffs.jnaive_coeff == pytest.approx(float(coeffs.beta @ shares ** 2),
                                                rel=1e-12)


def test_quadratic_coefficients_identity_naive_optimal():
    cfg = make_two_class(confusion=IDENTITY)
    coeffs = quadratic_coefficients(cfg)
    assert coeffs.jnaive_coeff == pytest.approx(coeffs.jstar_coeff, rel=1e-14)


@given(st.floats(0.05, 0.45), st.floats(0.05, 0.45))
@settings(max_examples=40, deadline=None)
def test_jstar_coeff_is_simplex_minimum(q12, q21):
    cfg = make_two_class(confusion=((1.0 - q12, q12), (q21, 1.0 - q21)))
    coeffs = quadratic_coefficients(cfg)
    beta = np.asarray(coeffs.beta)
    # closed-form minimum of sum beta_l s_l^2 over the simplex
    assert coeffs.jstar_coeff == pytest.approx(1.0 / np.sum(1.0 / beta), rel=1e-12)
    s = np.linspace(0.0, 1.0, 2001)
    grid_min = np.min(beta[0] * s ** 2 + beta[1] * (1.0 - s) ** 2)
    assert coeffs.jstar_coeff <= grid_min + 1e-9
    assert coeffs.jnaive_coeff >= coeffs.jstar_coeff - 1e-12


# --------------------------------------------------------------- J bounds

def _unit_paths():
    # W = 0 on [0, 0.5), 2 on [0.5, 1) and 3 at 1, on an even grid of 100 steps
    return given_paths(grid=np.linspace(0.0, 1.0, 101),
                       values=[np.repeat([0.0, 2.0, 3.0], [50, 50, 1])],
                       variance_rate=1.0, seed=0)


def test_jstar_quadratic_scaling(two_class_config):
    # per-path lower bound = (jstar_coeff / 2) * integral of W^2
    w = _unit_paths()                       # integral_sq = 2.0
    coeffs = quadratic_coefficients(two_class_config)
    est = jstar(two_class_config, w)
    assert est.per_path == pytest.approx([coeffs.jstar_coeff], rel=1e-12)
    assert est.mean == pytest.approx(coeffs.jstar_coeff, rel=1e-12)


def test_jstar_general_matches_fast(two_class_config):
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=40, seed=9)
    fast = jstar(two_class_config, w)
    gen = kkt_per_path(two_class_config, w)
    assert np.max(np.abs(fast.per_path - gen)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(fast.per_path))))
    coeff = quadratic_coefficients(two_class_config).jstar_coeff
    assert np.array_equal(fast.per_path, coeff * 0.5 * w.integral_sq())


def test_jstar_prices_the_config_it_is_given(two_class_config):
    w = _unit_paths()                       # integral_sq = 2.0
    clean = two_class_config.with_confusion(IDENTITY)
    assert jstar(clean, w).mean == quadratic_coefficients(clean).jstar_coeff
    assert jstar(clean, w).mean < jstar(two_class_config, w).mean


def test_jstar_nonquadratic_needs_general():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=10, seed=3)
    est = jstar(cfg, w)
    assert np.array_equal(est.per_path, kkt_per_path(cfg, w))
    assert est.mean > 0.0
    with pytest.raises(NonQuadraticError):
        jnaive(cfg, w)


def test_jnaive_dominates_jstar(two_class_config):
    w = bm_workload_paths(0.4, n_steps=200, horizon=1.0, n_paths=50, seed=21)
    star = jstar(two_class_config, w)
    naive = jnaive(two_class_config, w)
    assert np.all(naive.per_path >= star.per_path - 1e-12)
    assert naive.mean >= star.mean


def test_jstar_zero_paths(two_class_config):
    w = given_paths(grid=np.linspace(0.0, 1.0, 101),
                    values=np.zeros((4, 101)), variance_rate=0.0, seed=0)
    est = jstar(two_class_config, w)
    assert est.mean == 0.0
    assert est.stderr == 0.0


# -------------------------------------------------------- model selection

def test_relative_regret_identity_is_one(two_class_config):
    clean = two_class_config.with_confusion(IDENTITY)
    assert relative_regret(clean) == pytest.approx(1.0, abs=1e-12)


def test_relative_regret_definition(two_class_config):
    got = relative_regret(two_class_config)
    noisy = quadratic_coefficients(two_class_config).jstar_coeff
    clean = quadratic_coefficients(
        two_class_config.with_confusion(ConfusionMatrix(IDENTITY))).jstar_coeff
    assert got == pytest.approx(noisy / clean, rel=1e-12)
    assert got > 1.0


def test_wrong_shape_confusions_are_one_line_config_errors(two_class_config):
    # a 2-class config with a 3 x 3 classifier cannot be built, so no analytic sees one
    mixed = (CostFn(1.0), CostFn(10.0, power=3.0))
    for build in (lambda: make_two_class(confusion=np.eye(3)),
                  lambda: make_two_class(confusion=np.eye(3), costs=mixed),
                  lambda: two_class_config.with_confusion(np.eye(3))):
        with pytest.raises(ConfigError, match=r"^ShapeMismatch: prevalences\(2\), "
                           r"service_rates\(2\), costs\(2\), confusion\(3\) disagree$"):
            build()
    for candidate, shown in ((np.eye(3), "(3,3)"), (np.ones((2, 3)) / 3, "(2,3)"),
                             (np.eye(2)[None], "(1,2,2)")):
        with pytest.raises(ConfigError) as err:
            rank_models([("ok", np.eye(2)), ("big", candidate)], two_class_config)
        assert str(err.value) == f"ShapeMismatch: config(2), candidate 'big'{shown} disagree"


def test_rank_models_orders_and_is_stable(two_class_config):
    noisy = ((0.7, 0.3), (0.3, 0.7))
    mild = ((0.95, 0.05), (0.05, 0.95))
    models = [("noisy", ConfusionMatrix(noisy)),
              ("ident", ConfusionMatrix(IDENTITY)),
              ("noisy_twin", ConfusionMatrix(noisy)),
              ("mild", ConfusionMatrix(mild))]
    ranked = rank_models(models, two_class_config)
    assert [m.name for m in ranked] == ["ident", "mild", "noisy", "noisy_twin"]
    regrets = [m.relative_regret for m in ranked]
    assert regrets == sorted(regrets)
    assert ranked[0].relative_regret == pytest.approx(1.0, abs=1e-12)
    assert ranked[2].jstar_coeff == pytest.approx(ranked[3].jstar_coeff)
    single = rank_models([("only", ConfusionMatrix(IDENTITY))], two_class_config)
    assert len(single) == 1 and single[0].name == "only"


# ----------------------------------------------------------- pinned bits

def _three_class():
    return make_two_class(lam=2.0, prevalences=(0.2, 0.3, 0.5), service_rates=(3.0, 2.0, 1.0),
                          costs=(CostFn(4.0), CostFn(2.0, 2.5), CostFn(1.0, 3.0)),
                          confusion=((0.8, 0.1, 0.1), (0.1, 0.7, 0.2), (0.2, 0.2, 0.6)))


# (per_path, mean, stderr) on bm_workload_paths(0.4, 100, 1.0, 5, seed=3), and
# (x, objective) of kkt_solve at r = 1e-12, 0.3, 1, 1e4.  The quadratic ones
# were recorded when the analytics still took a confusion, params or costs
# beside the config: taking the config alone must not move a bit.  The mixed
# and three-class ones were re-pinned when one joint Newton replaced the
# nested level and inverse Newtons, which moved them by at most 8.4e-16
# relative (4.4e-16 in x).  All four estimates were re-pinned when each path's
# integral became its row's sum times the even step, not a gemv product with
# np.diff(grid), which moved them by at most 7.4e-16 relative
_ESTIMATE_BITS = {
    "jstar_mixed": ([0.20031901422445964, 1.6623229899297312, 0.8884973371604099,
                     0.6318651355475352, 0.08450664486807132],
                    0.6935022243460415, 0.2823598054905077),
    "jstar_three": ([0.03964497947831137, 0.24263092096003763, 0.14148221339867262,
                     0.10411747241123069, 0.01874470567260552],
                    0.10932405838417156, 0.03993229786530354),
    "jstar_quad": ([0.5417862943018042, 2.364797587961538, 1.524017121776079,
                    1.164657240595417, 0.2868883022759223],
                   1.176429309382152, 0.3692715798958734),
    "jnaive_quad": ([0.7841260827269065, 3.422566219545918, 2.205706545690726,
                     1.6856057995422264, 0.4152127933278406],
                    1.7026434881667238, 0.5344459253611704),
}
_KKT_RS = (1e-12, 0.3, 1.0, 1e4)
_KKT_BITS = {
    "mixed": [([2.4784924219029704e-14, 9.752150757809703e-13], 4.424416223770196e-26),
              ([0.10570723683827922, 0.19429276316172076], 0.12018104227809553),
              ([0.38330190025584243, 0.6166980997441576], 3.8461212364731345),
              ([3981.312583192429, 6018.687416807571], 3556872160800.392)],
    "three": [([2.1906354808488353e-14, 2.7709134744907496e-13, 7.010022977424369e-13],
               1.236942946028409e-25),
              ([0.018912707086475005, 0.07273556387735983, 0.2083517290361652],
               0.027577381252370057),
              ([0.10782406203757072, 0.2571348932133705, 0.6350410447490585],
               0.5335602029493491),
              ([2488.3274390516594, 3442.8877211807326, 4068.784839767609], 109454172800.79672)],
}


def test_analytics_bits_are_pinned(two_class_config):
    mixed = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=5, seed=3)
    estimates = {"jstar_mixed": jstar(mixed, w), "jstar_three": jstar(_three_class(), w),
                 "jstar_quad": jstar(two_class_config, w),
                 "jnaive_quad": jnaive(two_class_config, w)}
    for name, est in estimates.items():
        per_path, mean, stderr = _ESTIMATE_BITS[name]
        assert np.array_equal(est.per_path, per_path), name
        assert (est.mean, est.stderr) == (mean, stderr), name
    for name, cfg in (("mixed", mixed), ("three", _three_class())):
        for r, (x, objective) in zip(_KKT_RS, _KKT_BITS[name]):
            alloc = kkt_solve(r, cfg)
            assert np.array_equal(alloc.x, x) and alloc.objective == objective, (name, r)
    assert relative_regret(two_class_config) == 1.3940966088479285
    assert np.array_equal(two_class_xstar(0.8, two_class_config),
                          [0.348308258663224, 0.45169174133677603])
    coeffs = quadratic_coefficients(two_class_config)
    assert np.array_equal(coeffs.beta, [22.082644628099168, 17.028355387523632])
    assert np.array_equal(coeffs.beta_naive, [5.421487603305785, 17.84499054820416])
    assert (coeffs.jstar_coeff, coeffs.jnaive_coeff) == (9.614459371365024, 13.914985380205746)
    models = [("noisy", ((0.7, 0.3), (0.3, 0.7))), ("dead", ((1.0, 0.0), (1.0, 0.0))),
              ("ref", ((0.9, 0.1), (0.2, 0.8))), ("ident", IDENTITY)]
    assert [(m.name, m.relative_regret, m.jstar_coeff, m.jnaive_coeff)
            for m in rank_models(models, two_class_config)] == [
        ("ident", 1.0, 6.8965517241379315, 6.896551724137932),
        ("ref", 1.3940966088479285, 9.614459371365024, 13.914985380205746),
        ("noisy", 1.4454574347332576, 9.96867196367764, 16.450702537208684),
        ("dead", 1.4650519031141869, 10.103806228373703, 10.103806228373703)]
