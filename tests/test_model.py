import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqsched import (
    ConfigError,
    ConfusionMatrix,
    CostFn,
    Dist,
    MixtureCost,
    SystemConfig,
    ZeroColumnError,
    config_from_json,
    config_to_json,
    derive_predicted_params,
    load_config,
    mixture_cost,
    save_config,
    validate_config,
)
from conftest import make_two_class


# ---------------------------------------------------------------- CostFn

def test_costfn_value_and_derivative():
    c = CostFn(2.0)
    assert c(3.0) == pytest.approx(9.0)          # (2/2) * 3^2
    assert c(0.0) == 0.0
    assert c.prime(3.0) == pytest.approx(6.0)    # 2 * 3
    assert c.is_quadratic
    cubic = CostFn(3.0, power=3.0)
    assert cubic(2.0) == pytest.approx(8.0)      # (3/3) * 2^3
    assert cubic.prime(2.0) == pytest.approx(12.0)
    assert not cubic.is_quadratic


def test_costfn_prime_inv_roundtrip():
    for c in (CostFn(2.0), CostFn(5.0, power=2.5), CostFn(0.7, power=4.0)):
        for y in (0.0, 0.3, 1.0, 17.2):
            t = c.prime_inv(y)
            assert c.prime(t) == pytest.approx(y, abs=1e-12)


def test_costfn_bad_parameters_flagged_by_validation():
    # the constructor is permissive; validate_config owns the rules
    for costs in (((CostFn(0.0), CostFn(1.0))),
                  ((CostFn(-1.0), CostFn(1.0))),
                  ((CostFn(1.0, power=1.5), CostFn(1.0)))):
        report = validate_config(make_two_class(costs=costs))
        assert any("BadCost" in e for e in report.errors)


# ------------------------------------------------------- ConfusionMatrix

def test_confusion_identity_and_rows():
    q = ConfusionMatrix.identity(3)
    assert q.n_classes == 3
    assert np.allclose(q.entries, np.eye(3))
    assert q.issues() == []
    assert np.allclose(q.row(1), [0.0, 1.0, 0.0])


def test_confusion_entries_are_read_only():
    q = ConfusionMatrix(((0.9, 0.1), (0.2, 0.8)))
    with pytest.raises(ValueError):
        q.entries[0, 0] = 0.5


def test_confusion_issue_codes():
    bad_sum = ConfusionMatrix(((0.9, 0.09), (0.2, 0.8)))
    assert any("RowNotStochastic" in s for s in bad_sum.issues())
    bad_entry = ConfusionMatrix(((1.2, -0.2), (0.2, 0.8)))
    assert any("EntryOutOfRange" in s for s in bad_entry.issues())


def test_confusion_must_be_square():
    with pytest.raises(ConfigError):
        ConfusionMatrix(((0.5, 0.5),))


# ------------------------------------------------- predicted-class params

def test_predicted_params_reference_instance(two_class_config):
    # Hand-derived for lam=1, p=(0.3, 0.7), mu=(2, 1), q=((0.9,0.1),(0.2,0.8)):
    #   p~_1 = 0.3*0.9 + 0.7*0.2 = 0.41,               p~_2 = 0.59
    #   rho~_1 = 0.3*0.9/2 + 0.7*0.2/1 = 0.275,        rho~_2 = 0.575
    #   mu~_l = lam~_l / rho~_l
    #   w_11 = 0.27/0.41, w_21 = 0.14/0.41, w_12 = 0.03/0.59, w_22 = 0.56/0.59
    params = derive_predicted_params(two_class_config)
    assert params.p_tilde == pytest.approx([0.41, 0.59], abs=1e-14)
    assert params.lambda_tilde == pytest.approx([0.41, 0.59], abs=1e-14)
    assert params.rho_tilde == pytest.approx([0.275, 0.575], abs=1e-14)
    assert params.mu_tilde == pytest.approx([0.41 / 0.275, 0.59 / 0.575],
                                            abs=1e-12)
    expected_w = np.array([[0.27 / 0.41, 0.03 / 0.59],
                           [0.14 / 0.41, 0.56 / 0.59]])
    assert np.allclose(params.mix_weights, expected_w, atol=1e-14)


def test_predicted_params_identity_reduces_to_true(identity_config):
    params = derive_predicted_params(identity_config)
    assert params.p_tilde == pytest.approx([0.3, 0.7])
    assert params.mu_tilde == pytest.approx([2.0, 1.0])
    assert np.allclose(params.mix_weights, np.eye(2))


def test_zero_predicted_column_raises():
    cfg = make_two_class(confusion=((1.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ZeroColumnError):
        derive_predicted_params(cfg)


@st.composite
def random_system(draw):
    k = draw(st.integers(2, 5))
    fl = st.floats(0.05, 1.0, allow_nan=False)
    q = np.array([[draw(fl) for _ in range(k)] for _ in range(k)])
    q /= q.sum(axis=1, keepdims=True)
    p = np.array([draw(fl) for _ in range(k)])
    p /= p.sum()
    mu = tuple(draw(st.floats(0.5, 5.0)) for _ in range(k))
    lam = draw(st.floats(0.5, 3.0))
    costs = tuple(CostFn(draw(st.floats(0.5, 5.0))) for _ in range(k))
    return SystemConfig(lam=lam, prevalences=tuple(p), service_rates=mu,
                        costs=costs, confusion=ConfusionMatrix(q))


@given(random_system())
@settings(max_examples=50, deadline=None)
def test_predicted_params_invariants(cfg):
    params = derive_predicted_params(cfg)
    k = cfg.n_classes
    assert math.isclose(float(np.sum(params.p_tilde)), 1.0, abs_tol=1e-12)
    assert math.isclose(float(np.sum(params.rho_tilde)), cfg.rho, abs_tol=1e-12)
    # mix weights are a probability distribution over true classes per column
    assert np.allclose(params.mix_weights.sum(axis=0), np.ones(k), atol=1e-12)
    assert np.all(params.mix_weights >= 0)
    # harmonic mean-work identity: 1/mu~_l = sum_k w_kl / mu_k
    inv = params.mix_weights.T @ (1.0 / np.asarray(cfg.service_rates))
    assert np.allclose(1.0 / params.mu_tilde, inv, atol=1e-12)
    # lam~ = lam * p~ and rho~ = lam~ / mu~
    assert np.allclose(params.lambda_tilde, cfg.lam * params.p_tilde, atol=1e-12)
    assert np.allclose(params.rho_tilde,
                       params.lambda_tilde / params.mu_tilde, atol=1e-12)


# ------------------------------------------------------------ MixtureCost

def test_mixture_cost_common_power_coefficient():
    # p = (0.5, 0.5), q = ((0.8, 0.2), (0.2, 0.8)), costs (1, 10) quadratic:
    # the predicted-1 mixture weight on true class 1 is 0.8, so the blended
    # quadratic coefficient is 0.8*1 + 0.2*10 = 2.8.
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         confusion=((0.8, 0.2), (0.2, 0.8)))
    params = derive_predicted_params(cfg)
    mix = mixture_cost(0, params, cfg.costs)
    assert mix.common_power == 2.0
    assert mix.coeff == pytest.approx(2.8, abs=1e-14)
    assert mix(2.0) == pytest.approx(2.8 / 2 * 4.0, abs=1e-12)
    assert mix.prime(2.0) == pytest.approx(5.6, abs=1e-12)
    assert mix.prime_inv(5.6) == pytest.approx(2.0, abs=1e-10)


def test_mixture_cost_mixed_powers_numeric_inverse():
    # weights (0.5, 0.5) over C1(t) = t^2 (coeff 2) and C2(t) = t^3 (coeff 3):
    # C'(t) = t + 1.5 t^2, so prime_inv(y) solves 1.5 t^2 + t - y = 0.
    mix = MixtureCost((0.5, 0.5), (CostFn(2.0), CostFn(3.0, power=3.0)))
    assert mix.common_power is None
    y = 1.0
    expect = (-1.0 + math.sqrt(1.0 + 6.0 * y)) / 3.0
    assert mix.prime_inv(y) == pytest.approx(expect, abs=1e-10)
    for yy in (0.0, 0.25, 4.0, 50.0):
        assert mix.prime(mix.prime_inv(yy)) == pytest.approx(yy, abs=1e-9)
    assert mix(0.0) == 0.0
    # convex and increasing on t > 0
    ts = np.linspace(0.0, 3.0, 7)
    vals = [mix(t) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    d2 = np.diff(vals, 2)
    assert np.all(d2 > -1e-12)


# ------------------------------------------------------------------ Dist

LOGNORMAL = {"family": "lognormal", "sigma": 0.5}
FAMILY_TAGS = ["exponential", "deterministic", LOGNORMAL, {"family": "lognormal", "sigma": 0}]


@pytest.mark.parametrize("tag", [
    "gamma", "lognormal", "lognormal:0.25", "Exponential", 5, None, ["exponential"],
    {"family": "exponential"}, {"family": "lognormal"}, {"family": "lognormal", "sigma": "x"},
    {"family": "lognormal", "sigma": -0.1}, {"family": "lognormal", "sigma": math.nan},
    {"family": "lognormal", "sigma": math.inf}, {"family": "lognormal", "sigma": True},
    {"family": "lognormal", "sigma": 0.5, "mu": 0.0}, {"family": "gamma", "sigma": 0.5},
])
def test_dist_parse_rejects_everything_else(tag):
    forms = '"exponential", "deterministic" or {"family": "lognormal", "sigma": s} with s a'
    with pytest.raises(ConfigError, match=re.escape(forms)):
        Dist.parse(tag)
    with pytest.raises(ConfigError, match="^service_dist "):
        make_two_class(service_dist=tag)


def test_system_config_parses_its_dist_fields():
    cfg = make_two_class(arrival_dist="deterministic", service_dist=LOGNORMAL)
    assert cfg.arrival_dist == Dist("deterministic")
    assert cfg.service_dist == Dist("lognormal", 0.5)
    assert replace(cfg, horizon=2.0).service_dist is cfg.service_dist
    assert replace(cfg, service_dist="exponential").service_dist == Dist("exponential")
    with pytest.raises(ConfigError, match="^arrival_dist "):
        replace(cfg, arrival_dist="lognormal")


@pytest.mark.parametrize("tag", FAMILY_TAGS)
def test_json_roundtrip_every_family(two_class_config, tag):
    cfg = replace(two_class_config, arrival_dist=tag, service_dist=tag)
    doc = json.loads(json.dumps(config_to_json(cfg)))
    assert doc["arrival_dist"] == doc["service_dist"] == tag
    back = config_from_json(doc)
    assert back.arrival_dist == back.service_dist == Dist.parse(tag)
    assert config_to_json(back) == config_to_json(cfg)


# -------------------------------------------------------------- validation

def test_validate_ok_and_heavy_traffic_warning(two_class_config):
    report = validate_config(two_class_config)   # rho = 0.85
    assert report.errors == []
    assert any("HeavyTrafficDeviation" in w for w in report.warnings)
    assert report.rho == pytest.approx(0.85)
    assert report.ok
    report.raise_if_invalid()  # warnings alone never raise


def test_validate_no_warning_inside_band(critical_config):
    report = validate_config(critical_config)    # rho = 1 exactly
    assert report.errors == []
    assert report.warnings == []


def test_validate_error_codes():
    bad = make_two_class(service_rates=(-2.0, 1.0))
    codes = " ".join(validate_config(bad).errors)
    assert "NonPositiveRate" in codes

    bad = make_two_class(prevalences=(-0.1, 1.1))
    codes = " ".join(validate_config(bad).errors)
    assert "NegativePrevalence" in codes

    bad = make_two_class(prevalences=(0.3, 0.6))
    codes = " ".join(validate_config(bad).errors)
    assert "PrevalenceNotNormalized" in codes

    bad = make_two_class(confusion=((0.9, 0.09), (0.2, 0.8)))
    codes = " ".join(validate_config(bad).errors)
    assert "RowNotStochastic" in codes

    bad = make_two_class(confusion=((1.0, 0.0), (1.0, 0.0)))
    codes = " ".join(validate_config(bad).errors)
    assert "ZeroColumn" in codes

    bad = make_two_class(horizon=0.0)
    codes = " ".join(validate_config(bad).errors)
    assert "NonPositiveHorizon" in codes

    report = validate_config(make_two_class(service_rates=(-2.0, 1.0)))
    assert not report.ok
    with pytest.raises(ConfigError):
        report.raise_if_invalid()


def test_validate_shape_mismatch_short_circuits():
    bad = SystemConfig(lam=1.0, prevalences=(0.3, 0.7), service_rates=(2.0,),
                       costs=(CostFn(1.0), CostFn(10.0)),
                       confusion=ConfusionMatrix.identity(2))
    report = validate_config(bad)
    assert len(report.errors) == 1
    assert "ShapeMismatch" in report.errors[0]


# ------------------------------------------------------------------- JSON

def test_json_roundtrip(two_class_config):
    doc = config_to_json(two_class_config)
    assert doc["lambda"] == 1.0
    assert doc["costs"][1] == {"coeff": 10.0, "power": 2.0}
    back = config_from_json(doc)
    assert back.lam == two_class_config.lam
    assert np.array_equal(back.prevalences, two_class_config.prevalences)
    assert np.array_equal(back.service_rates, two_class_config.service_rates)
    assert np.allclose(back.confusion.entries, two_class_config.confusion.entries)
    assert back.horizon == two_class_config.horizon
    assert back.arrival_dist.family == "exponential"
    assert [(c.coeff, c.power) for c in back.costs] == [(1.0, 2.0), (10.0, 2.0)]


def test_json_strict_runs_validation(two_class_config):
    doc = config_to_json(two_class_config)
    doc["service_rates"] = [-2.0, 1.0]
    with pytest.raises(ConfigError):
        config_from_json(doc)          # a document is always validated


def test_json_malformed_raises(two_class_config):
    doc = config_to_json(two_class_config)
    del doc["lambda"]
    with pytest.raises(ConfigError):
        config_from_json(doc)
    doc2 = config_to_json(two_class_config)
    doc2["costs"] = "cheap"
    with pytest.raises(ConfigError):
        config_from_json(doc2)


def test_save_and_load_config(tmp_path, two_class_config):
    target = tmp_path / "config.json"
    save_config(two_class_config, target)
    text = target.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["lambda"] == 1.0
    back = load_config(target)
    assert np.array_equal(back.service_rates, [2.0, 1.0])
    # a second save writes identical bytes
    target2 = tmp_path / "config2.json"
    save_config(back, target2)
    assert target2.read_bytes() == target.read_bytes()
