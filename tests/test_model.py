import itertools
import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy.special import ndtri

from pqsched import (
    ConfigError,
    ConfusionMatrix,
    CostFn,
    Dist,
    PolicyRef,
    SystemConfig,
    ZeroColumnError,
    config_from_json,
    config_to_json,
    cost_terms,
    derive_predicted_params,
    kkt_solve,
    load_config,
    save_config,
)
import reference_engine
import reference_kkt
from conftest import make_two_class
from reference_mixture import MixtureCost


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
    # a config may leave a label empty; what needs its service law refuses it
    cfg = make_two_class(confusion=((1.0, 0.0), (1.0, 0.0)))
    text = r"^ZeroColumn: predicted class\(es\) \[1\] have zero arrival mass \(sum_k p_k q_kl = 0\)$"
    with pytest.raises(ZeroColumnError, match=text):
        derive_predicted_params(cfg)
    with pytest.raises(ZeroColumnError, match=text):   # and so does a config document
        config_from_json(config_to_json(cfg))


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


# ------------------------------------------------------------ cost_terms

def test_mixture_cost_common_power_coefficient():
    # p = (0.5, 0.5), q = ((0.8, 0.2), (0.2, 0.8)), costs (1, 10) quadratic:
    # the predicted-1 mixture weight on true class 1 is 0.8, so the blended
    # quadratic coefficient is 0.8*1 + 0.2*10 = 2.8, and label 2's is 8.2.
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         confusion=((0.8, 0.2), (0.2, 0.8)))
    params = derive_predicted_params(cfg)
    e, s = cost_terms(cfg.costs, params.mix_weights)
    assert e.tolist() == [1.0] and s.shape == (1, 2)
    assert s[0] == pytest.approx([2.8, 8.2], abs=1e-14)
    # C~(t) = c~ t^2 / 2 and C~'(t) = c~ t, as the oracle mixture prices them
    mix = MixtureCost(params.mix_weights[:, 0], cfg.costs)
    assert mix(2.0) == pytest.approx(s[0, 0] / 2 * 4.0, abs=1e-12)
    assert mix.prime(2.0) == pytest.approx(s[0, 0] * 2.0, abs=1e-12) == pytest.approx(5.6)
    assert reference_kkt.newton_prime_inv(mix, 5.6) == pytest.approx(2.0, abs=1e-10)


@st.composite
def cost_systems(draw):
    """A config of 1 to 5 classes whose costs share one power or not, and whose
    confusion matrix may hold zeros (never on its diagonal, so no label is empty)."""
    k = draw(st.integers(1, 5))
    power = st.sampled_from([2.0, 2.5, 3.0, 4.0])
    powers = [draw(power)] * k if draw(st.booleans()) else [draw(power) for _ in range(k)]
    entry = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
    q = np.array([[draw(entry) for _ in range(k)] for _ in range(k)])
    q[np.diag_indices(k)] = [draw(st.floats(0.05, 1.0)) for _ in range(k)]
    p = np.array([draw(st.floats(0.05, 1.0)) for _ in range(k)])
    return SystemConfig(lam=draw(st.floats(0.5, 3.0)), prevalences=p / p.sum(),
                        service_rates=[draw(st.floats(0.5, 5.0)) for _ in range(k)],
                        costs=tuple(CostFn(draw(st.floats(0.01, 100.0)), pw) for pw in powers),
                        confusion=q / q.sum(axis=1, keepdims=True))


@given(cost_systems())
@settings(max_examples=200, deadline=None)
def test_cost_terms_group_the_mixture_by_exponent(cfg):
    w = derive_predicted_params(cfg).mix_weights
    e, s = cost_terms(cfg.costs, w)
    present = {c.power - 1.0 for k, c in enumerate(cfg.costs) if np.any(w[k] > 0)}
    assert e.tolist() == sorted(present) and np.all(np.diff(e) > 0)
    assert s.shape == (len(e), cfg.n_classes)
    mixes = [MixtureCost(w[:, l], cfg.costs) for l in range(cfg.n_classes)]
    if len(e) == 1:  # the one common-power test: the oracle's monomial, bit for bit
        assert all(m.common_power == e[0] + 1.0 for m in mixes)
        assert s[0].tolist() == [m.coeff for m in mixes]
    for t in (1e-3, 0.7, 1.0, 4.0, 250.0):
        got = np.sum(s * t ** e[:, None], axis=0)
        want = np.array([m.prime(t) for m in mixes])
        assert np.all(np.abs(got - want) <= 1e-13 * want)


# A cost of coeff 1e-300 whose weight is 1e-30, in one label or in all: its
# c_k w_kl underflows to 0 but it is present, as it is in the oracle mixture.
# The split (hex pins) and every index keep their bits.
_UNDERFLOW = {
    "one_label": (SystemConfig(2.0, [0.5, 0.5], [1.0, 2.0], (CostFn(1e-300, 3.0), CostFn(1.0)),
                               [[1.0, 1e-30], [0.4, 0.6]]),
                  ["0x1.eb851eb851eb7p-2", "0x1.47ae147ae147cp-6", "0x1.eb851eb851eb9p-1",
                   "0x1.47ae147ae147dp-5", "0x1.70a3d70a3d70ap+1", "0x1.eb851eb851ebap-4"],
                  ["0x1.1111111111111p-5", "0x1.1111111111112p-3", "0x1.3333333333334p+0"]),
    "every_label": (SystemConfig(2.0, [1e-30, 1.0], [1.0, 2.0],
                                 (CostFn(1e-300, 3.0), CostFn(1.0)), [[0.5, 0.5], [0.4, 0.6]]),
                    ["0x1.9999999999999p-3", "0x1.3333333333333p-2", "0x1.9999999999999p-2",
                     "0x1.3333333333333p-1", "0x1.3333333333333p+0", "0x1.ccccccccccccdp+0"],
                    ["0x1.fffffffffffffp-3", "0x1.fffffffffffffp-1", "0x1.2000000000000p+3"]),
}


@pytest.mark.parametrize("name", sorted(_UNDERFLOW))
def test_cost_terms_count_an_underflowing_cost_as_present(name):
    cfg, x_hex, objective_hex = _UNDERFLOW[name]
    w = derive_predicted_params(cfg).mix_weights
    assert 1e-300 * w[0, 1] == 0.0 < w[0, 1]
    e, s = cost_terms(cfg.costs, w)
    assert e.tolist() == [1.0, 2.0] and s[1, 1] == 0.0
    assert MixtureCost(w[:, 1], cfg.costs).common_power is None
    alloc = kkt_solve(np.array([0.5, 1.0, 3.0]), cfg)
    assert [v.hex() for v in alloc.x.ravel()] == x_hex
    assert [v.hex() for v in alloc.objective] == objective_hex
    for kind in ("oracle", "naive", "pcmu"):
        new = PolicyRef.for_config(kind, cfg).index
        old = reference_engine.RefPolicy.for_config(kind, cfg).index
        for l, n in itertools.product(range(2), (1, 2, 5, 40)):
            assert new(l, n) == old(l, n), (kind, l, n)


def test_mixture_cost_mixed_powers_numeric_inverse():
    # weights (0.5, 0.5) over C1(t) = t^2 (coeff 2) and C2(t) = t^3 (coeff 3):
    # C'(t) = t + 1.5 t^2, so prime_inv(y) solves 1.5 t^2 + t - y = 0.
    mix = MixtureCost((0.5, 0.5), (CostFn(2.0), CostFn(3.0, power=3.0)))
    assert mix.common_power is None
    y = 1.0
    expect = (-1.0 + math.sqrt(1.0 + 6.0 * y)) / 3.0
    assert reference_kkt.newton_prime_inv(mix, y) == pytest.approx(expect, abs=1e-10)
    for yy in (0.0, 0.25, 4.0, 50.0):
        assert mix.prime(reference_kkt.newton_prime_inv(mix, yy)) == pytest.approx(yy, abs=1e-9)
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


def _scalar_draw(dist, x, rate):
    """The draw of the Python float uniform x, one step at a time, as the
    reference engine takes it."""
    if dist.family == "exponential":
        return -float(np.log(1.0 - x)) / rate
    z = ndtri(1.0 - x)
    return float(np.exp(-0.5 * dist.sigma * dist.sigma + dist.sigma * z)) / rate


@pytest.mark.parametrize("dist", [Dist("exponential"), Dist("lognormal", 0.5)],
                         ids=["exponential", "lognormal"])
def test_draws_do_not_depend_on_the_array(dist):
    # numpy's log and exp take vector and remainder paths by offset and
    # length: a draw is the same bits on each, and on a Python float
    rng = Generator(Philox(key=27))
    u = np.concatenate(([0.0], rng.random(2048)))
    for rate in (3.0, rng.uniform(0.5, 50.0, u.size)):
        whole = dist.draws(u, rate)
        per_draw = np.broadcast_to(rate, u.shape)
        assert whole.tolist() == [_scalar_draw(dist, x, r)
                                  for x, r in zip(u.tolist(), per_draw.tolist())]
        for i in range(17):
            for n in range(1, 34):
                part = dist.draws(u[i:i + n], rate if np.ndim(rate) == 0 else rate[i:i + n])
                assert np.array_equal(part, whole[i:i + n])


# -------------------------------------------------------------- validation

def test_heavy_traffic_warning_outside_band(two_class_config, critical_config):
    assert two_class_config.warnings == [
        "HeavyTrafficDeviation: rho = 0.85; diffusion formulas assume rho ~ 1"]
    assert critical_config.warnings == []    # rho = 1 exactly


_CONSTRUCTOR_REFUSALS = {
    "non-finite-lambda": (lambda: make_two_class(lam=float("nan")),
                          "NonFinite: lambda = nan (must be finite)"),
    "non-finite-cost": (lambda: make_two_class(costs=(CostFn(1.0), CostFn(math.inf, power=math.nan))),
                        "NonFinite: costs[1].coeff = inf (must be finite); "
                        "NonFinite: costs[1].power = nan (must be finite)"),
    "lambda-cube": (lambda: make_two_class(lam=1e103),
                    "NonFinite: lambda = 1e+103 (its cube, a term of the workload variance rate, "
                    "overflows)"),
    # a lognormal sigma near 30 overflows E[V^2] = e^(s^2) / mu^2
    "service-moment": (lambda: make_two_class(service_dist={"family": "lognormal", "sigma": 30.0}),
                       "NonFinite: service_dist = {'family': 'lognormal', 'sigma': 30.0} "
                       "(its second moment overflows)"),
    "arrival-moment": (lambda: make_two_class(lam=1e-200),
                       "NonFinite: arrival_dist = exponential (its second moment overflows)"),
    "lambda": (lambda: make_two_class(lam=0.0), "NonPositiveRate: lambda = 0.0"),
    "service-rate": (lambda: make_two_class(service_rates=(-2.0, 1.0)),
                     "NonPositiveRate: service_rates = [-2.0, 1.0]"),
    "negative-prevalence": (lambda: make_two_class(prevalences=(-0.1, 1.1)),
                            "NegativePrevalence: prevalences must be >= 0"),
    "prevalence-sum": (lambda: make_two_class(prevalences=(0.3, 0.6)),
                       "PrevalenceNotNormalized: sum = 0.9"),
    # prevalences summing to 2 would put sum_k p_k E[V_k^2] below the squared mean
    "prevalence-sum-2": (lambda: make_two_class(prevalences=(1.0, 1.0), service_dist="deterministic"),
                         "PrevalenceNotNormalized: sum = 2"),
    "zero-coeff": (lambda: make_two_class(costs=(CostFn(0.0), CostFn(1.0))),
                   "BadCost: class 0 coeff 0.0 (must be > 0)"),
    "negative-coeff": (lambda: make_two_class(costs=(CostFn(-1.0), CostFn(1.0))),
                       "BadCost: class 0 coeff -1.0 (must be > 0)"),
    "power-1.5": (lambda: make_two_class(costs=(CostFn(1.0, power=1.5), CostFn(1.0))),
                  "BadCost: class 0 power 1.5 (must be >= 2)"),
    # an index policy needs an index nondecreasing in the queue length
    "power-0.5": (lambda: make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=0.5))),
                  "BadCost: class 1 power 0.5 (must be >= 2)"),
    "entry": (lambda: make_two_class(confusion=((1.2, -0.2), (0.2, 0.8))),
              "EntryOutOfRange: confusion entries must lie in [0, 1]"),
    "row": (lambda: make_two_class(confusion=((0.9, 0.09), (0.2, 0.8))),
            "RowNotStochastic: row 0 sums to 0.99"),
    "with-confusion": (lambda: make_two_class().with_confusion(((0.9, 0.1), (0.2, 0.7))),
                       "RowNotStochastic: row 1 sums to 0.9"),
    "horizon": (lambda: make_two_class(horizon=0.0), "NonPositiveHorizon: horizon = 0.0"),
    "several": (lambda: make_two_class(lam=-1.0, prevalences=(0.3, 0.6), horizon=-2.0),
                "NonPositiveRate: lambda = -1.0; PrevalenceNotNormalized: sum = 0.9; "
                "NonPositiveHorizon: horizon = -2.0"),
}


@pytest.mark.parametrize("build, text", _CONSTRUCTOR_REFUSALS.values(), ids=_CONSTRUCTOR_REFUSALS)
def test_invalid_config_cannot_be_built(build, text):
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == text


def test_validate_shape_mismatch_short_circuits():
    # class counts are checked first: a mismatch is the only error reported
    with pytest.raises(ConfigError, match=r"^ShapeMismatch: prevalences\(2\), service_rates\(1\), "
                       r"costs\(2\), confusion\(2\) disagree$"):
        SystemConfig(lam=1.0, prevalences=(0.3, 0.7), service_rates=(2.0,),
                     costs=(CostFn(1.0), CostFn(10.0)),
                     confusion=ConfusionMatrix.identity(2))


@pytest.mark.parametrize("overrides, text", [
    ({"costs": (CostFn(1.0),)}, "prevalences(2), service_rates(2), costs(1), confusion(2)"),
    ({"service_rates": (2.0, 1.0, 1.0)},
     "prevalences(2), service_rates(3), costs(2), confusion(2)"),
    ({"confusion": np.eye(3)}, "prevalences(2), service_rates(2), costs(2), confusion(3)"),
    ({"prevalences": 0.5}, "prevalences(), service_rates(2), costs(2), confusion(2)"),
    ({"prevalences": ((0.15, 0.35), (0.15, 0.35))},
     "prevalences(2,2), service_rates(2), costs(2), confusion(2)"),
    ({"service_rates": 2.0}, "prevalences(2), service_rates(), costs(2), confusion(2)"),
    ({"service_rates": ((2.0, 1.0), (2.0, 1.0))},
     "prevalences(2), service_rates(2,2), costs(2), confusion(2)"),
])
def test_config_with_disagreeing_class_counts_cannot_be_built(overrides, text):
    with pytest.raises(ConfigError) as err:
        make_two_class(**overrides)
    assert str(err.value) == f"ShapeMismatch: {text} disagree"


def test_config_reads_a_plain_confusion_array():
    cfg = make_two_class(confusion=ConfusionMatrix(((0.9, 0.1), (0.2, 0.8))))
    plain = replace(cfg, confusion=[[0.9, 0.1], [0.2, 0.8]])
    assert isinstance(plain.confusion, ConfusionMatrix)
    assert np.array_equal(plain.confusion.entries, cfg.confusion.entries)
    with pytest.raises(ConfigError, match=r"^ShapeMismatch: .* confusion\(3\) disagree$"):
        cfg.with_confusion(np.eye(3))


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


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("field", ["lambda", "prevalences", "service_rates", "costs[0].coeff",
                                   "costs[1].power", "horizon"])
def test_json_non_finite_number_names_its_field(two_class_config, field, value):
    doc = config_to_json(two_class_config)
    if field.startswith("costs"):
        doc["costs"][int(field[6])][field.split(".")[1]] = value
    elif field in ("prevalences", "service_rates"):
        doc[field][0] = value
    else:
        doc[field] = value
    doc = json.loads(json.dumps(doc))   # json reads NaN and Infinity tokens
    with pytest.raises(ConfigError, match=re.escape(f"NonFinite: {field} = ")):
        config_from_json(doc)


def test_json_malformed_raises(two_class_config):
    doc = config_to_json(two_class_config)
    del doc["lambda"]
    with pytest.raises(ConfigError):
        config_from_json(doc)
    doc2 = config_to_json(two_class_config)
    doc2["costs"] = "cheap"
    with pytest.raises(ConfigError):
        config_from_json(doc2)


def test_json_integer_is_refused_only_past_the_float_range(tmp_path):
    from pqsched.model import load_json
    target = tmp_path / "ints.json"
    fits = [10 ** 308, -(10 ** 308), 2 ** 1024 - 2 ** 970 - 1]   # the last rounds to float max
    target.write_text(json.dumps(fits))
    assert load_json(target) == fits and all(type(n) is int for n in load_json(target))
    # the first rounds to 2 ** 1024; the last is past int()'s 4300-digit limit
    for literal in (str(2 ** 1024 - 2 ** 970), "-1" + "0" * 309, "9" * 5000):
        target.write_text('{"lambda": [1, %s]}' % literal)
        with pytest.raises(ConfigError) as err:
            load_json(target)
        assert str(err.value) == (f"{target}: integer {literal[:10]}... ({len(literal)} "
                                  "characters) overflows the float range")


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


@pytest.mark.parametrize("lam", [1e103, 1e200])
def test_lambda_whose_cube_overflows_is_a_non_finite_error(two_class_config, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the moments are finite, but workload_variance_rate's Python float
        # lam ** 3 raises past 5.6e102
        doc = {**config_to_json(two_class_config), "lambda": lam}
        with pytest.raises(ConfigError, match="^" + re.escape(
                f"NonFinite: lambda = {lam} (its cube, a term of the workload variance rate, "
                "overflows)")):
            config_from_json(doc)


def test_second_moment_never_raises():
    # a scalar rate is squared by pow, as a Python float is, bit for bit
    for rate in (0.3, 7.0, 49999.0, 1e-100):
        assert Dist("exponential").second_moment(rate) == 2.0 / rate ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Dist("deterministic").second_moment(1e-200) == math.inf
        assert Dist("exponential").second_moment(1e-160) == math.inf
        assert Dist("exponential").second_moment(1e200) == 0.0


@pytest.mark.parametrize("key", ["arrival_dist", "service_dist"])
def test_overflowing_second_moment_is_a_non_finite_error(two_class_config, key):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no raw numpy overflow warning either
        assert Dist.parse({"family": "lognormal", "sigma": 30.0}).second_moment(2.0) == math.inf
        doc = {**config_to_json(two_class_config), key: {"family": "lognormal", "sigma": 30.0}}
        with pytest.raises(ConfigError, match=re.escape(
                f"NonFinite: {key} = {{'family': 'lognormal', 'sigma': 30.0}} (its second")):
            config_from_json(doc)
