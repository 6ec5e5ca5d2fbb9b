import numpy as np
import pytest

from pqsched import (
    POLICY_KINDS,
    ConfigError,
    CostFn,
    PolicyRef,
    PredictedClassParams,
    SystemConfig,
    derive_predicted_params,
)
from conftest import make_two_class
from reference_engine import RefPolicy, decide, naive_gcmu_index, oracle_gcmu_index, pcmu_index


def _plain_params():
    """Predicted-class parameters with an identity label mix, so the blended
    cost per predicted class equals the corresponding true-class cost."""
    return PredictedClassParams(
        p_tilde=np.array([0.3, 0.7]),
        lambda_tilde=np.array([0.3, 0.7]),
        mu_tilde=np.array([2.0, 1.0]),
        rho_tilde=np.array([0.15, 0.7]),
        mix_weights=np.eye(2),
    )


def test_pcmu_index_worked_example():
    # mu~ = (2, 1), quadratic coefficients (1, 10), lam~ = (0.3, 0.7),
    # counts (3, 2):  index_1 = 2 * 1 * (3/0.3) = 20,
    #                 index_2 = 1 * 10 * (2/0.7) = 200/7.
    params = _plain_params()
    costs = (CostFn(1.0), CostFn(10.0))
    counts = (3, 2)
    assert pcmu_index(0, counts, params, costs) == pytest.approx(20.0)
    assert pcmu_index(1, counts, params, costs) == pytest.approx(200.0 / 7.0)


def test_naive_equals_pcmu_with_identity_mix():
    params = _plain_params()
    costs = (CostFn(1.0), CostFn(10.0))
    for l in range(2):
        for counts in ((3, 2), (1, 5), (10, 1)):
            assert naive_gcmu_index(l, counts, params, costs) == pytest.approx(
                pcmu_index(l, counts, params, costs))


def test_naive_diverges_under_confusion():
    # p = (0.5, 0.5), q = ((0.8, 0.2), (0.2, 0.8)): the predicted-1 mixture
    # coefficient is 2.8, but naive uses the raw label-1 coefficient 1.
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         confusion=((0.8, 0.2), (0.2, 0.8)))
    params = derive_predicted_params(cfg)
    counts = (1, 1)
    full = pcmu_index(0, counts, params, cfg.costs)
    naive = naive_gcmu_index(0, counts, params, cfg.costs)
    assert full == pytest.approx(naive * 2.8, rel=1e-12)


def test_oracle_index_uses_true_class_rates(two_class_config):
    # true-side index with counts (3, 2): same arithmetic as the worked
    # example because lam_k = lam * p_k = (0.3, 0.7) and mu = (2, 1).
    counts = (3, 2)
    assert oracle_gcmu_index(0, counts, two_class_config) == pytest.approx(20.0)
    assert oracle_gcmu_index(1, counts, two_class_config) == pytest.approx(200.0 / 7.0)


def test_policy_kinds_and_flags(two_class_config):
    assert set(POLICY_KINDS) == {"oracle", "naive", "pcmu", "fcfs"}
    for kind in POLICY_KINDS:
        pol = PolicyRef.for_config(kind, two_class_config)
        assert pol.kind == kind
        assert pol.uses_true_class == (kind == "oracle")
    with pytest.raises(ConfigError):
        PolicyRef.for_config("lifo", two_class_config)


def test_index_closed_form_matches_definition(two_class_config):
    params = derive_predicted_params(two_class_config)
    pol = PolicyRef.for_config("pcmu", two_class_config)
    for l in range(2):
        for n in (1, 2, 7, 30):
            direct = pcmu_index(l, [n if j == l else 0 for j in range(2)],
                                params, two_class_config.costs)
            assert pol.index(l, n) == pytest.approx(direct, rel=1e-12)
    npol = PolicyRef.for_config("naive", two_class_config)
    for l in range(2):
        direct = naive_gcmu_index(l, [3, 3], params, two_class_config.costs)
        assert npol.index(l, 3) == pytest.approx(direct, rel=1e-12)
    orc = PolicyRef.for_config("oracle", two_class_config)
    for k in range(2):
        direct = oracle_gcmu_index(k, [4, 4], two_class_config)
        assert orc.index(k, 4) == pytest.approx(direct, rel=1e-12)


def test_index_mixed_powers_falls_back_to_primes():
    cfg = make_two_class(costs=(CostFn(1.0), CostFn(10.0, power=3.0)))
    params = derive_predicted_params(cfg)
    pol = PolicyRef.for_config("pcmu", cfg)
    for l in range(2):
        for n in (1, 4, 9):
            direct = pcmu_index(l, [n, n], params, cfg.costs)
            assert pol.index(l, n) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("power", [2.0, 2.5, 3.0, 4.0, None])
def test_index_keeps_the_reference_bits(power):
    # every index kind on 1 to 5 classes, at one common power or mixed ones
    # (None), against the index resolved class by class from the oracle
    # mixtures: each A_l is taken with scalar operations, as there, since
    # numpy's array ** moves some A_l by an ulp at powers 2.5 and 4
    rng = np.random.default_rng(int(10 * (power or 0)))
    for _ in range(60):
        k = int(rng.integers(1, 6))
        powers = [power] * k if power else rng.choice([2.0, 2.5, 3.0, 4.0], k)
        costs = tuple(CostFn(c, p) for c, p in zip(rng.lognormal(0.0, 1.0, k), powers))
        cfg = SystemConfig(lam=rng.uniform(0.5, 5.0), prevalences=rng.dirichlet(np.ones(k)),
                           service_rates=rng.uniform(0.5, 5.0, k), costs=costs,
                           confusion=rng.dirichlet(np.ones(k), k))
        for kind in ("oracle", "naive", "pcmu"):
            new = PolicyRef.for_config(kind, cfg).index
            old = RefPolicy.for_config(kind, cfg).index
            got = [new(l, n) for l in range(k) for n in (1, 2, 3, 17)]
            assert got == [old(l, n) for l in range(k) for n in (1, 2, 3, 17)], (kind, cfg)


def test_index_zero_queue_and_fcfs(two_class_config):
    pol = PolicyRef.for_config("pcmu", two_class_config)
    assert pol.index(0, 0) == 0.0
    assert pol.index(1, -3) == 0.0
    # fcfs's jobs are one FIFO line: every queue's index is 0
    fcfs = PolicyRef.for_config("fcfs", two_class_config)
    assert fcfs.index(0, 1) == 0.0
    assert fcfs.index(1, 7) == 0.0


def test_decide_empty_and_argmax(two_class_config):
    pol = PolicyRef.for_config("pcmu", two_class_config)
    assert decide((0, 0), pol) is None
    # counts (3, 2) reproduce the worked example: class 2 has the larger index
    assert decide((3, 2), pol) in (0, 1)
    params = derive_predicted_params(two_class_config)
    i0 = pcmu_index(0, (3, 2), params, two_class_config.costs)
    i1 = pcmu_index(1, (3, 2), params, two_class_config.costs)
    assert decide((3, 2), pol) == int(np.argmax([i0, i1]))
    # only one nonempty class: that class is served regardless of index size
    assert decide((0, 1), pol) == 1


def test_decide_tie_prefers_smallest_class():
    cfg = make_two_class(prevalences=(0.5, 0.5), service_rates=(1.0, 1.0),
                         costs=(CostFn(2.0), CostFn(2.0)),
                         confusion=((1.0, 0.0), (0.0, 1.0)))
    pol = PolicyRef.for_config("pcmu", cfg)
    assert decide((4, 4), pol) == 0
    assert decide((0, 4), pol) == 1


def test_decide_scale_invariance(rng):
    base = make_two_class()
    scaled = make_two_class(costs=(CostFn(7.0), CostFn(70.0)))
    p1 = PolicyRef.for_config("pcmu", base)
    p2 = PolicyRef.for_config("pcmu", scaled)
    for _ in range(100):
        counts = rng.integers(0, 12, size=2)
        assert decide(counts, p1) == decide(counts, p2)


def test_decide_fcfs_picks_oldest_head():
    class _Heads:
        def __init__(self, heads):
            self._heads = heads

        def head_arrivals(self):
            return self._heads

    cfg = make_two_class()
    pol = PolicyRef.for_config("fcfs", cfg)
    inf = float("inf")
    assert decide(_Heads([2.5, 1.7]), pol) == 1
    assert decide(_Heads([0.4, inf]), pol) == 0
    assert decide(_Heads([inf, inf]), pol) is None


