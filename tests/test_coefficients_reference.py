"""The stacked stiffness kernel against the per-config reference, and the
one-class limit of a label that is never predicted."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsched import (
    ConfusionMatrix,
    CostFn,
    SystemConfig,
    ZeroColumnError,
    bm_workload_paths,
    config_from_json,
    jstar,
    quadratic_coefficients,
    rank_models,
    relative_regret,
    two_class_xstar,
)
from pqsched.httheory import stiffness_coefficients
from conftest import make_two_class
from helpers import bench_inputs, kkt_per_path
import reference_coefficients as ref

RTOL = 1e-13
FIELDS = ("beta", "beta_naive", "jstar_coeff", "jnaive_coeff")


@st.composite
def systems(draw):
    """A config with K in 1..5 and a stack of row-stochastic matrices whose
    columns all carry mass."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    weights = st.floats(0.05, 1.0)
    p = np.array([draw(weights) for _ in range(k)])
    config = SystemConfig(
        lam=draw(st.floats(0.1, 1e3)), prevalences=p / p.sum(),
        service_rates=[draw(st.floats(0.1, 300.0)) for _ in range(k)],
        costs=[CostFn(draw(st.floats(0.1, 50.0))) for _ in range(k)],
        confusion=ConfusionMatrix.identity(k))
    rows = np.array([[draw(st.floats(0.0, 1.0)) for _ in range(k * k)] for _ in range(n)])
    q = rows.reshape(n, k, k) + 1e-3 * np.eye(k)     # every column non-empty
    return config, q / q.sum(axis=-1, keepdims=True)


def _close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return np.allclose(new, old, rtol=RTOL, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_kernel_matches_reference(system):
    config, stack = system
    inv_beta, inv_naive, jstar_coeff, jnaive_coeff, _ = stiffness_coefficients(
        config.lam, config.prevalences, config.service_rates,
        np.array([fn.coeff for fn in config.costs]), stack)
    stacked = dict(zip(FIELDS, (1.0 / inv_beta, 1.0 / inv_naive, jstar_coeff, jnaive_coeff)))
    _, regret, ranked_jstar, ranked_jnaive = rank_models(stack, config)
    clean = quadratic_coefficients(config.with_confusion(np.eye(config.n_classes))).jstar_coeff
    for i, q in enumerate(stack):
        want = ref.quadratic_coefficients(config.with_confusion(q))
        single = quadratic_coefficients(config.with_confusion(q))
        for field in FIELDS:
            assert _close(getattr(single, field), getattr(want, field)), field
            # a matrix's coefficients do not depend on the stack it is priced in
            assert np.array_equal(stacked[field][i], getattr(single, field)), field
        assert (ranked_jstar[i], ranked_jnaive[i]) == (single.jstar_coeff, single.jnaive_coeff)
        assert regret[i] == relative_regret(config.with_confusion(q))
        # relative_regret prices I in the stack's kernel, not as a second config
        assert relative_regret(config.with_confusion(q)) == float(single.jstar_coeff / clean)
        assert np.ndim(single.jstar_coeff) == 0 and jstar_coeff.shape == (len(stack),)


def test_rank_models_matches_reference_on_benchmark_candidates():
    inputs = bench_inputs()
    config = config_from_json(inputs.ten_class_config())
    rng = np.random.default_rng([0, 0x9E3779B9])
    models = [(m["name"], ConfusionMatrix(m["confusion"]))
              for m in inputs.candidate_models(rng, inputs.N_CANDIDATES, 10)]
    den = ref.quadratic_coefficients(config.with_confusion(np.eye(10))).jstar_coeff
    want = []
    for name, q in models:
        coeffs = ref.quadratic_coefficients(config.with_confusion(q))
        want.append((name, coeffs.jstar_coeff / den, coeffs.jstar_coeff, coeffs.jnaive_coeff))
    want.sort(key=lambda m: m[1])
    order, *got = rank_models(np.stack([q.entries for _, q in models]), config)
    assert [models[i][0] for i in order] == [m[0] for m in want]
    for i, w in zip(order, want):
        assert _close([c[i] for c in got], w[1:])


# ------------------------------------------------ a label never predicted

DEAD = {1: ((1.0, 0.0), (1.0, 0.0)), 0: ((0.0, 1.0), (0.0, 1.0))}
NEAR = {1: ((1.0, 0.0), (1.0 - 1e-9, 1e-9)), 0: ((1e-9, 1.0 - 1e-9), (0.0, 1.0))}


@pytest.mark.parametrize("dead", [0, 1])
def test_dead_label_takes_the_one_class_limit(dead, two_class_config):
    q, near = ConfusionMatrix(DEAD[dead]), ConfusionMatrix(NEAR[dead])
    at_dead = two_class_config.with_confusion(q)
    regret = relative_regret(at_dead)
    assert np.isfinite(regret) and regret >= 1.0
    assert regret == pytest.approx(relative_regret(two_class_config.with_confusion(near)),
                                   rel=1e-6)
    _, *ranked = rank_models(np.stack([q.entries, near.entries]), two_class_config)
    assert ranked[0][0] == pytest.approx(regret, rel=RTOL)
    for field, (at, beside) in zip(("relative_regret", "jstar_coeff", "jnaive_coeff"), ranked):
        assert np.isfinite(at) and at == pytest.approx(beside, rel=1e-6), field
    coeffs = quadratic_coefficients(at_dead)
    assert coeffs.beta[dead] == np.inf and coeffs.beta_naive[dead] == np.inf
    # the empty label gets no work
    split = two_class_xstar(2.5, at_dead)
    assert split.tolist() == ([0.0, 2.5] if dead == 0 else [2.5, 0.0])


def test_dead_label_still_fails_where_its_service_law_is_needed(two_class_config):
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=4, seed=1)
    at_dead = two_class_config.with_confusion(DEAD[1])
    assert np.isfinite(jstar(at_dead, w).mean)
    with pytest.raises(ZeroColumnError):   # the KKT route needs the label's service law
        kkt_per_path(at_dead, w)


def test_dead_label_in_a_three_class_system():
    cfg = make_two_class(prevalences=(0.2, 0.3, 0.5), service_rates=(3.0, 2.0, 1.0),
                         costs=(CostFn(4.0), CostFn(2.0), CostFn(1.0)),
                         confusion=ConfusionMatrix.identity(3))
    q = np.array([[0.8, 0.0, 0.2], [0.1, 0.0, 0.9], [0.3, 0.0, 0.7]])
    near = q.copy()
    near[0, :2] = (0.8 - 1e-9, 1e-9)
    coeffs = quadratic_coefficients(cfg.with_confusion(q))
    want = ref.quadratic_coefficients(cfg.with_confusion(near))
    assert coeffs.beta[1] == np.inf and coeffs.beta_naive[1] == np.inf
    for field in FIELDS:
        at, beside = getattr(coeffs, field), getattr(want, field)
        assert np.allclose(1.0 / at, 1.0 / beside, rtol=1e-6, atol=1e-9), field
