import math

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
    Moments,
    NonFiniteMomentError,
    NonQuadraticError,
    WorkloadPathSet,
    bm_workload_paths,
    derive_predicted_params,
    jnaive,
    jstar,
    kkt_solve,
    mixture_cost,
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
    m = Moments.for_config(cfg)
    assert m.alpha_u == pytest.approx(2.0)                  # 2 / lam^2, lam=1
    assert m.alpha_v == pytest.approx([2.0 / 4.0, 2.0])     # 2 / mu_k^2
    det = make_two_class(arrival_dist="deterministic", service_dist="deterministic")
    md = Moments.for_config(det)
    assert md.alpha_u == pytest.approx(1.0)
    assert md.alpha_v == pytest.approx([0.25, 1.0])
    logn = make_two_class(service_dist={"family": "lognormal", "sigma": 0.5})
    ml = Moments.for_config(logn)
    assert ml.alpha_v == pytest.approx(np.exp(0.25) / np.array([4.0, 1.0]))


@pytest.mark.parametrize("arrival", ["exponential", "deterministic",
                                     {"family": "lognormal", "sigma": 0.6}])
@pytest.mark.parametrize("service", ["exponential", "deterministic",
                                     {"family": "lognormal", "sigma": 0.5},
                                     {"family": "lognormal", "sigma": 0.8}])
def test_simulated_second_moments_match_moments(arrival, service):
    # the simulator's draws and the analytics' moments read one config alike:
    # sample means of U^2 (arrival gaps) and V_k^2 (service column of each
    # true class) sit within 5 standard errors of Moments.for_config
    cfg = make_two_class(lam=1.0, horizon=1e5, arrival_dist=arrival, service_dist=service)
    path = run_path(cfg, "fcfs", seed=11)
    m = Moments.for_config(cfg)
    samples = [(np.diff(path.arrival_times, prepend=0.0), m.alpha_u)]
    samples += [(path.service[path.true_class == k], m.alpha_v[k]) for k in range(2)]
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


def test_variance_rate_moment_guards(two_class_config):
    with pytest.raises(NonFiniteMomentError):
        workload_variance_rate(two_class_config,
                               Moments(alpha_u=np.inf, alpha_v=np.array([1.0, 1.0])))
    with pytest.raises(ConfigError):
        # alpha_v below the squared mean -> negative variance
        workload_variance_rate(two_class_config,
                               Moments(alpha_u=2.0, alpha_v=np.array([0.0, 0.0])))
    with pytest.raises(ConfigError):
        workload_variance_rate(two_class_config,
                               Moments(alpha_u=2.0, alpha_v=np.array([1.0])))


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


@pytest.mark.parametrize("bad", [dict(n_paths=0), dict(variance_rate=-1.0),
                                 dict(grid=np.linspace(0.0, 1.0, 101) ** 2),
                                 dict(grid=np.linspace(0.0, 1.0, 100))])
def test_path_set_built_directly_is_checked(bad):
    # no path (a NaN mean), a negative variance (NaN integrals), an uneven
    # grid (drawn with grid[-1]/n_steps steps but integrated with diff(grid))
    # and too few steps are refused as bm_workload_paths refuses them
    args = dict(grid=np.linspace(0.0, 1.0, 101), n_paths=3, variance_rate=1.0, seed=0)
    WorkloadPathSet(**args)
    with pytest.raises(ConfigError):
        WorkloadPathSet(**(args | bad))


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

def _params_costs(cfg):
    params = derive_predicted_params(cfg)
    return params, cfg.costs


def test_kkt_zero_budget(two_class_config):
    params, costs = _params_costs(two_class_config)
    alloc = kkt_solve(0.0, params, costs)
    assert np.allclose(alloc.x, 0.0)
    assert alloc.objective == 0.0
    assert alloc.r == 0.0


def test_kkt_single_class():
    cfg = make_two_class(lam=2.0, prevalences=(1.0,), service_rates=(2.0,),
                         costs=(CostFn(3.0),), confusion=((1.0,),))
    params, costs = _params_costs(cfg)
    alloc = kkt_solve(1.7, params, costs)
    assert alloc.x == pytest.approx([1.7])


def test_kkt_symmetric_split():
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         costs=(CostFn(2.0), CostFn(2.0)),
                         confusion=((0.7, 0.3), (0.3, 0.7)))
    params, costs = _params_costs(cfg)
    alloc = kkt_solve(1.0, params, costs)
    assert alloc.x == pytest.approx([0.5, 0.5], abs=1e-12)


def test_kkt_reference_closed_form():
    # Q = I, r = 1 on (lam=1, p=(0.3,0.7), mu=(2,1), c=(1,10)):
    # a_1 = c_1 mu_1^2 / p_1 = 40/3, a_2 = c_2 mu_2^2 / p_2 = 100/7,
    # x_1 = a_2 / (a_1 + a_2) = 15/29 = 0.51724..., x_2 = 14/29.
    cfg = make_two_class(confusion=IDENTITY)
    params, costs = _params_costs(cfg)
    alloc = kkt_solve(1.0, params, costs)
    assert alloc.x == pytest.approx([15.0 / 29.0, 14.0 / 29.0], abs=1e-8)
    # marginal balance holds to near float resolution
    marg = [params.mu_tilde[l]
            * mixture_cost(l, params, costs).prime(alloc.x[l] / params.rho_tilde[l])
            for l in range(2)]
    assert abs(marg[0] - marg[1]) <= 1e-8 * max(marg)
    # objective field matches its definition
    direct = sum(params.lambda_tilde[l]
                 * mixture_cost(l, params, costs)(alloc.x[l] / params.rho_tilde[l])
                 for l in range(2))
    assert alloc.objective == pytest.approx(direct, rel=1e-12)


def test_kkt_matches_brute_force_grid(two_class_config):
    params, costs = _params_costs(two_class_config)
    alloc = kkt_solve(1.0, params, costs)
    mix0 = mixture_cost(0, params, costs)
    mix1 = mixture_cost(1, params, costs)
    x1 = np.arange(0.0, 1.0 + 1e-9, 1e-6)
    obj = (params.lambda_tilde[0] * mix0.coeff / 2.0 * (x1 / params.rho_tilde[0]) ** 2
           + params.lambda_tilde[1] * mix1.coeff / 2.0 * ((1.0 - x1) / params.rho_tilde[1]) ** 2)
    best = x1[int(np.argmin(obj))]
    assert abs(alloc.x[0] - best) <= 2e-6


def test_kkt_matches_slsqp_mixed_powers():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    params, costs = _params_costs(cfg)
    alloc = kkt_solve(1.3, params, costs)
    mixes = [mixture_cost(l, params, costs) for l in range(2)]

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
    params, costs = _params_costs(two_class_config)
    with pytest.raises(ConfigError):
        kkt_solve(-0.5, params, costs)


def test_allocation_monotone_and_continuous_in_r():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    params, costs = _params_costs(cfg)
    rs = np.linspace(0.0, 2.0, 101)
    xs = np.array([kkt_solve(r, params, costs).x for r in rs])
    dx = np.diff(xs, axis=0)
    dr = np.diff(rs)[0]
    assert np.all(dx >= -1e-9)                    # each class grows with r
    assert np.all(dx <= dr * (1.0 + 1e-6))        # 1-Lipschitz per component


# --------------------------------------------------------- two-class x*

def test_two_class_xstar_identity_reduction():
    cfg = make_two_class(confusion=IDENTITY)
    x = two_class_xstar(1.0, ConfusionMatrix(IDENTITY), cfg)
    assert x == pytest.approx([15.0 / 29.0, 14.0 / 29.0], abs=1e-10)


def test_two_class_xstar_matches_kkt(two_class_config):
    q = two_class_config.confusion
    x = two_class_xstar(0.8, q, two_class_config)
    params = derive_predicted_params(two_class_config)
    alloc = kkt_solve(0.8, params, two_class_config.costs)
    assert x == pytest.approx(alloc.x, abs=1e-8)


def test_two_class_xstar_guards():
    cubic = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    with pytest.raises(NonQuadraticError):
        two_class_xstar(1.0, cubic.confusion, cubic)
    three = make_two_class(
        lam=1.0, prevalences=(0.3, 0.3, 0.4), service_rates=(2.0, 1.0, 1.0),
        costs=(CostFn(1.0), CostFn(2.0), CostFn(3.0)),
        confusion=ConfusionMatrix.identity(3))
    with pytest.raises(ConfigError):
        two_class_xstar(1.0, three.confusion, three)


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
    est = jstar(two_class_config.confusion, two_class_config, w)
    assert est.per_path == pytest.approx([coeffs.jstar_coeff], rel=1e-12)
    assert est.mean == pytest.approx(coeffs.jstar_coeff, rel=1e-12)


def test_jstar_general_matches_fast(two_class_config):
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=40, seed=9)
    fast = jstar(two_class_config.confusion, two_class_config, w)
    gen = kkt_per_path(two_class_config, w, two_class_config.confusion)
    assert np.max(np.abs(fast.per_path - gen)) <= 1e-8 * max(
        1.0, float(np.max(np.abs(fast.per_path))))
    coeff = quadratic_coefficients(two_class_config).jstar_coeff
    assert np.array_equal(fast.per_path, coeff * 0.5 * w.integral_sq())


def test_jstar_none_confusion_uses_config(two_class_config):
    w = _unit_paths()
    a = jstar(None, two_class_config, w)
    b = jstar(two_class_config.confusion, two_class_config, w)
    assert a.mean == pytest.approx(b.mean, rel=1e-14)


def test_jstar_nonquadratic_needs_general():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=10, seed=3)
    est = jstar(cfg.confusion, cfg, w)
    assert np.array_equal(est.per_path, kkt_per_path(cfg, w, cfg.confusion))
    assert est.mean > 0.0
    with pytest.raises(NonQuadraticError):
        jnaive(cfg.confusion, cfg, w)


def test_jnaive_dominates_jstar(two_class_config):
    w = bm_workload_paths(0.4, n_steps=200, horizon=1.0, n_paths=50, seed=21)
    star = jstar(two_class_config.confusion, two_class_config, w)
    naive = jnaive(two_class_config.confusion, two_class_config, w)
    assert np.all(naive.per_path >= star.per_path - 1e-12)
    assert naive.mean >= star.mean


def test_jstar_zero_paths(two_class_config):
    w = given_paths(grid=np.linspace(0.0, 1.0, 101),
                    values=np.zeros((4, 101)), variance_rate=0.0, seed=0)
    est = jstar(two_class_config.confusion, two_class_config, w)
    assert est.mean == 0.0
    assert est.stderr == 0.0


# -------------------------------------------------------- model selection

def test_relative_regret_identity_is_one(two_class_config):
    assert relative_regret(ConfusionMatrix(IDENTITY),
                           two_class_config) == pytest.approx(1.0, abs=1e-12)


def test_relative_regret_definition(two_class_config):
    q = two_class_config.confusion
    got = relative_regret(q, two_class_config)
    noisy = quadratic_coefficients(two_class_config).jstar_coeff
    clean = quadratic_coefficients(
        two_class_config.with_confusion(ConfusionMatrix(IDENTITY))).jstar_coeff
    assert got == pytest.approx(noisy / clean, rel=1e-12)
    assert got > 1.0


def test_wrong_shape_confusions_are_one_line_config_errors(two_class_config):
    with pytest.raises(ConfigError, match=r"^confusion of shape \(3, 3\) does not fit a 2-class config$"):
        quadratic_coefficients(two_class_config, np.eye(3))
    with pytest.raises(ConfigError,
                       match=r"^candidate 'big' of shape \(3, 3\) does not fit a 2-class config$"):
        rank_models([("ok", np.eye(2)), ("big", np.eye(3))], two_class_config)


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
