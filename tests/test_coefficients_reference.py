"""The stacked stiffness kernel against the per-config reference, and the
one-class limit of a label that is never predicted."""

import importlib.util
from pathlib import Path

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
from conftest import make_two_class
from helpers import kkt_per_path
import reference_coefficients as ref

RTOL = 1e-13
FIELDS = ("beta", "beta_naive", "jstar_coeff", "jnaive_coeff")


def _bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    stacked = quadratic_coefficients(config, stack)
    for i, q in enumerate(stack):
        want = ref.quadratic_coefficients(config.with_confusion(q))
        single = quadratic_coefficients(config, q)
        for field in FIELDS:
            assert _close(getattr(single, field), getattr(want, field)), field
            # a matrix's coefficients do not depend on the stack it is priced in
            assert np.array_equal(getattr(stacked, field)[i], getattr(single, field)), field
        assert np.ndim(single.jstar_coeff) == 0 and stacked.jstar_coeff.shape == (len(stack),)


def test_rank_models_matches_reference_on_benchmark_candidates():
    inputs = _bench_inputs()
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
    got = rank_models(models, config)
    assert [m.name for m in got] == [m[0] for m in want]
    for m, w in zip(got, want):
        assert _close([m.relative_regret, m.jstar_coeff, m.jnaive_coeff], w[1:])


# ------------------------------------------------ a label never predicted

DEAD = {1: ((1.0, 0.0), (1.0, 0.0)), 0: ((0.0, 1.0), (0.0, 1.0))}
NEAR = {1: ((1.0, 0.0), (1.0 - 1e-9, 1e-9)), 0: ((1e-9, 1.0 - 1e-9), (0.0, 1.0))}


@pytest.mark.parametrize("dead", [0, 1])
def test_dead_label_takes_the_one_class_limit(dead, two_class_config):
    q, near = ConfusionMatrix(DEAD[dead]), ConfusionMatrix(NEAR[dead])
    regret = relative_regret(q, two_class_config)
    assert np.isfinite(regret) and regret >= 1.0
    assert regret == pytest.approx(relative_regret(near, two_class_config), rel=1e-6)
    ranked = {m.name: m for m in rank_models([("dead", q), ("near", near)], two_class_config)}
    assert ranked["dead"].relative_regret == pytest.approx(regret, rel=RTOL)
    for field in ("relative_regret", "jstar_coeff", "jnaive_coeff"):
        at, beside = getattr(ranked["dead"], field), getattr(ranked["near"], field)
        assert np.isfinite(at) and at == pytest.approx(beside, rel=1e-6), field
    coeffs = quadratic_coefficients(two_class_config, q)
    assert coeffs.beta[dead] == np.inf and coeffs.beta_naive[dead] == np.inf
    # the empty label gets no work
    split = two_class_xstar(2.5, q, two_class_config)
    assert split.tolist() == ([0.0, 2.5] if dead == 0 else [2.5, 0.0])


def test_dead_label_still_fails_where_its_service_law_is_needed(two_class_config):
    w = bm_workload_paths(0.4, n_steps=100, horizon=1.0, n_paths=4, seed=1)
    q = ConfusionMatrix(DEAD[1])
    assert np.isfinite(jstar(q, two_class_config, w).mean)
    with pytest.raises(ZeroColumnError):   # the KKT route needs the label's service law
        kkt_per_path(two_class_config, w, q)


def test_dead_label_in_a_three_class_system():
    cfg = make_two_class(prevalences=(0.2, 0.3, 0.5), service_rates=(3.0, 2.0, 1.0),
                         costs=(CostFn(4.0), CostFn(2.0), CostFn(1.0)),
                         confusion=ConfusionMatrix.identity(3))
    q = np.array([[0.8, 0.0, 0.2], [0.1, 0.0, 0.9], [0.3, 0.0, 0.7]])
    near = q.copy()
    near[0, :2] = (0.8 - 1e-9, 1e-9)
    coeffs = quadratic_coefficients(cfg, np.stack([q, near]))
    want = ref.quadratic_coefficients(cfg.with_confusion(near))
    assert coeffs.beta[0, 1] == np.inf and coeffs.beta_naive[0, 1] == np.inf
    for field in FIELDS:
        at, beside = getattr(coeffs, field)[0], getattr(want, field)
        assert np.allclose(1.0 / at, 1.0 / beside, rtol=1e-6, atol=1e-9), field
