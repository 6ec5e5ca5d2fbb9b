"""The workload-variance kernel against the two scalar formulas it replaced:
httheory's per-config rate and the triage reviewer's split-stream rate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsched import (ConfusionMatrix, CostFn, PassingCurves, SystemConfig, TriageConfig,
                     reviewer_params, workload_variance_rate)
from pqsched.httheory import variance_rate
import reference_triage
import reference_variance

RTOL = 1e-15
# exponential, or lognormal with sigma >= 1: E[X^2] >= e E[X]^2 keeps c_u and
# c_v well conditioned, so RTOL compares summation orders, not cancellation
# (500,000 random draws differed by at most 9e-16)
LAWS = st.just("exponential") | st.floats(1.0, 2.0).map(
    lambda s: {"family": "lognormal", "sigma": s})


@st.composite
def systems(draw):
    k = draw(st.integers(2, 10))
    weights = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
    return SystemConfig(lam=draw(st.floats(0.1, 1e4)), prevalences=weights / weights.sum(),
                        service_rates=[draw(st.floats(0.1, 300.0)) for _ in range(k)],
                        costs=[CostFn(1.0)] * k, confusion=ConfusionMatrix.identity(k),
                        arrival_dist=draw(LAWS), service_dist=draw(LAWS))


def _moments(cfg):
    return (cfg.arrival_dist.second_moment(cfg.lam),
            cfg.service_dist.second_moment(cfg.service_rates))


@settings(max_examples=400, deadline=None)
@given(cfg=systems(),
       q=st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False))
def test_kernel_matches_both_scalar_formulas(cfg, q):
    alpha_u, alpha_v = _moments(cfg)
    args = (cfg.lam, cfg.prevalences, cfg.service_rates, alpha_u, alpha_v)
    v = float(variance_rate(*args, q))
    reviewer = reference_triage.split_variance_rate(*args, q, cfg.lam * q)
    assert v == pytest.approx(reviewer, rel=RTOL, abs=0.0)
    if q == 1.0:
        assert v == pytest.approx(reference_variance.workload_variance_rate(cfg),
                                  rel=RTOL, abs=0.0)
    # a stack of mixes and split probabilities gives each entry its own bits
    stacked = variance_rate(cfg.lam, np.stack([cfg.prevalences[::-1], cfg.prevalences]),
                            cfg.service_rates, alpha_u, alpha_v, np.array([1.0, q]))
    assert stacked[1] == v


@settings(max_examples=100, deadline=None)
@given(cfg=systems())
def test_workload_variance_rate_is_the_unsplit_kernel(cfg):
    alpha_u, alpha_v = _moments(cfg)
    assert workload_variance_rate(cfg) == variance_rate(
        cfg.lam, cfg.prevalences, cfg.service_rates, alpha_u, alpha_v, q=1.0)


def test_reviewer_c_mix_is_the_mixture_mass_ratio():
    # the benchmark's triage config over its filtering grid, the empty
    # predicted label of z_tx = z_fl included
    config = TriageConfig(Lambda=50000.0, p=(0.2, 0.8), mu=(50.0, 200.0),
                          curves=PassingCurves.from_gaussian_logit((-1.0, -3.0), (1.0, 1.0)),
                          c_trp=20.0, c_trn=-3.0, c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                          c_r=800.0, delay_costs=(15.0, 1.0))
    z_fl = np.linspace(0.05, 0.48, 2000)
    for z_tx in (np.full_like(z_fl, 0.5), z_fl):
        params = reviewer_params((z_fl, z_tx), config)
        # c_mix as the triage design formed it before stiffness_coefficients returned it
        mass = params.p_mix[..., None] * params.q                   # p_k q_kl
        c = np.asarray(config.delay_costs)
        m, p_tilde = (mass * c[:, None]).sum(axis=-2), mass.sum(axis=-2)
        expected = np.divide(m, p_tilde, out=np.zeros_like(m), where=p_tilde > 0)
        assert np.array_equal(params.c_mix, expected)
        assert (params.c_mix[..., 1] == 0.0).any() == (z_tx is z_fl)
