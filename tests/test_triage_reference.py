"""The array triage pass against the per-point reference, and the empty-label limit."""

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsched import (
    ConfigError,
    EmptyGridError,
    EmptyPassError,
    McParams,
    PassingCurves,
    TriageConfig,
    ZeroColumnError,
    evaluate_grid,
    filtering_cost_rate,
    misclass_cost_rate,
    reviewer_params,
    reviewer_queue_cost,
    reviewer_variance_rate,
    staffing,
    total_cost,
)
from pqsched.cli import main
import reference_triage as ref

MC = McParams(n_paths=60, n_steps=100, seed=3)
RTOL = 1e-13
FIELDS = ("z_fl", "z_tx", "gamma", "filtering", "hiring", "misclassification", "queueing")


def ref_config():
    return TriageConfig(Lambda=50000.0, p=(0.2, 0.8), mu=(50.0, 200.0),
                        curves=PassingCurves.from_gaussian_logit((-1.0, -3.0), (1.0, 1.0)),
                        c_trp=20.0, c_trn=-3.0, c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                        c_r=800.0, delay_costs=(15.0, 1.0))


@st.composite
def curve_sets(draw):
    if draw(st.booleans()):
        locs = [draw(st.floats(-4.0, 3.0)) for _ in range(2)]
        scales = [draw(st.floats(0.3, 3.0)) for _ in range(2)]
        return PassingCurves.from_gaussian_logit(locs, scales, grid_size=draw(st.integers(11, 301)))
    # piecewise-linear grid curves, flat stretches and early zeros included
    n = draw(st.integers(2, 8))
    z = np.concatenate([[0.0], np.sort(draw(st.lists(st.floats(0.01, 0.99), min_size=n - 2,
                                                       max_size=n - 2, unique=True))), [1.0]])
    values = []
    for _ in range(2):
        steps = np.array(draw(st.lists(st.sampled_from((0.0, 0.05, 0.2, 0.5)), min_size=n - 1,
                                       max_size=n - 1)))
        values.append(np.clip(1.0 - np.concatenate([[0.0], np.cumsum(steps)]), 0.0, 1.0))
    return PassingCurves.from_grid(z, *values)


@st.composite
def triage_configs(draw):
    mu = (draw(st.floats(1.0, 300.0)), draw(st.floats(1.0, 300.0)))
    p0 = draw(st.floats(0.0, 1.0))
    moments = {}
    if draw(st.booleans()):
        # service second moments at least 1.5 / mu^2 keep the work variance
        # well conditioned, so 1e-13 compares arithmetic, not cancellation
        moments = dict(alpha_u=draw(st.floats(0.5, 3.0)) / 1e4 ** 2,
                       alpha_v=tuple(draw(st.floats(1.5, 4.0)) / m ** 2 for m in mu))
    return TriageConfig(
        Lambda=draw(st.floats(1e2, 1e5)), p=(p0, 1.0 - p0), mu=mu, curves=draw(curve_sets()),
        c_trp=draw(st.floats(0.1, 50.0)), c_trn=-draw(st.floats(0.1, 10.0)),
        c_fp=draw(st.floats(-5.0, 5.0)), c_fn=draw(st.floats(-5.0, 5.0)),
        c_tp=draw(st.floats(-5.0, 5.0)), c_tn=draw(st.floats(-5.0, 5.0)),
        c_r=draw(st.floats(1.0, 1000.0)), delay_costs=(draw(st.floats(0.1, 20.0)),
                                                       draw(st.floats(0.1, 20.0))),
        **moments)


def _close(new, old):
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return np.allclose(new, old, rtol=RTOL, atol=0.0) or np.array_equal(new, old)


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the reference's exception types are the contract
        return None, (type(exc), str(exc))


def _reference(name, *args):
    # near an empty label the reference's beta overflows to inf, with a warning
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _outcome(getattr(ref, name), *args)


thresholds = st.floats(0.0, 1.0) | st.sampled_from((0.0, 0.25, 0.5, 1.0))


def underflow_config():
    """Something passes at z_fl = 1 (the toxic share 5e-324), yet Gamma =
    Lambda * 5e-324 / mu_0 underflows to 0."""
    return TriageConfig(Lambda=50000.0, p=(5e-324, 1.0), mu=(50.0, 200.0),
                        curves=PassingCurves.from_grid([0.0, 1.0], [1.0, 1.0], [1.0, 0.0]),
                        c_trp=20.0, c_trn=-3.0, c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                        c_r=800.0, delay_costs=(15.0, 1.0))


def recorded_understaffed_config():
    """A design hypothesis once drew: at z_fl = 1, Gamma = 0.444 reviewers is
    below the passing share 0.8 (q = 1.8), where the reviewer variance rate
    is a small negative difference of large terms."""
    return TriageConfig(Lambda=100.0, p=(1.19e-7, 1.0 - 1.19e-7), mu=(17.27, 180.19),
                        curves=PassingCurves.from_grid([0.0, 1.0], [1.0, 1.0], [1.0, 0.8]),
                        c_trp=1.0, c_trn=-1.0, c_fp=0.0, c_fn=0.0, c_tp=0.0, c_tn=0.0,
                        c_r=1.0, delay_costs=(1.0, 1.0), alpha_u=1e-8, alpha_v=(0.0067, 5.5e-5))


def understaffed_config():
    """Only the fast non-toxic class passes near z_fl = 1, so Gamma falls
    below the passing share there: q = 3 at z_fl = 1, but 0.02 at z_fl = 0."""
    return TriageConfig(Lambda=100.0, p=(0.5, 0.5), mu=(1.0, 300.0),
                        curves=PassingCurves.from_grid([0.0, 1.0], [1.0, 0.0], [1.0, 1.0]),
                        c_trp=20.0, c_trn=-3.0, c_fp=3.0, c_fn=3.0, c_tp=-3.0, c_tn=-3.0,
                        c_r=800.0, delay_costs=(15.0, 1.0))


@settings(max_examples=150, deadline=None)
@given(config=triage_configs(), z_fl=thresholds, z_tx=thresholds)
@example(config=underflow_config(), z_fl=1.0, z_tx=1.0)
@example(config=recorded_understaffed_config(), z_fl=1.0, z_tx=1.0)
def test_scalar_functions_match_reference(config, z_fl, z_tx):
    for name, args in (("staffing", (z_fl, config)),
                       ("filtering_cost_rate", (z_fl, config)),
                       ("misclass_cost_rate", ((z_fl, z_tx), config)),
                       ("reviewer_params", ((z_fl, z_tx), config)),
                       ("reviewer_variance_rate", (z_fl, config)),
                       ("reviewer_queue_cost", ((z_fl, z_tx), config, MC)),
                       ("total_cost", ((z_fl, z_tx), config, MC))):
        got, error = _outcome(globals()[name], *args)
        want, want_error = _reference(name, *args)
        if want_error is not None and want_error[0] is ZeroColumnError:
            # an empty predicted label: the reference fails, the array pass
            # takes the one-class limit (see the continuity test below)
            assert error is None
            continue
        assert error == want_error, name
        if error is not None:
            continue
        if name == "reviewer_params":
            for field in ("z_fl", "z_tx", "gamma", "lam_r", "pass_prob", "p_mix", "q", "c_mix"):
                assert _close(getattr(got, field), getattr(want, field)), field
        elif name == "total_cost":
            assert all(_close(getattr(got, f), getattr(want, f)) for f in FIELDS)
        else:
            assert _close(got, want), name


@settings(max_examples=100, deadline=None)
@given(config=triage_configs(),
       zfl_grid=st.lists(st.floats(-0.05, 1.05) | thresholds, min_size=1, max_size=12),
       z_tx=st.lists(thresholds, min_size=1, max_size=3))
def test_evaluate_grid_matches_reference(config, zfl_grid, z_tx):
    got, error = _outcome(evaluate_grid, config, z_tx, zfl_grid, MC)
    want, want_error = _reference("evaluate_grid", config, z_tx, zfl_grid, MC)
    if want_error is not None and want_error[0] is ZeroColumnError:
        # the reference stops at an empty label; the array pass goes on, to
        # the limit there or to a bad threshold further along the grid
        assert error is None or error[0] is ConfigError
        return
    assert error == want_error
    if error is not None:
        return
    got, skipped = got
    assert len(got) == len(want)
    assert skipped["z_tx_below_z_fl"] == sum(b < a for a in zfl_grid for b in z_tx)
    assert sum(skipped.values()) == len(zfl_grid) * len(z_tx) - len(want)
    for new, old in zip(got, want):
        assert all(_close(getattr(new, f), getattr(old, f)) for f in FIELDS)
    totals = np.array([d.total for d in got])
    assert int(np.argmin(totals)) == int(np.argmin([d.total for d in want]))


@settings(max_examples=40, deadline=None)
@given(config=triage_configs(), z=st.lists(thresholds, min_size=2, max_size=6))
def test_array_thresholds_match_scalar_calls(config, z):
    z_fl = np.array(z)
    z_tx = np.maximum(z_fl, 0.6)
    pairs = list(zip(z_fl.tolist(), z_tx.tolist()))
    assert np.array_equal(staffing(z_fl, config), [staffing(a, config) for a in z_fl.tolist()])
    assert np.array_equal(filtering_cost_rate(z_fl, config),
                          [filtering_cost_rate(a, config) for a in z_fl.tolist()])
    assert np.array_equal(misclass_cost_rate((z_fl, z_tx), config),
                          [misclass_cost_rate(pair, config) for pair in pairs])
    d, error = _outcome(total_cost, (z_fl, z_tx), config, MC)
    ones = [_outcome(total_cost, pair, config, MC) for pair in pairs]
    if error is not None:
        # an array call reports its first infeasible point, as that point's scalar call does
        assert error == next(e for _, e in ones if e is not None)
        return
    assert all(e is None for _, e in ones)
    for i, (one, _) in enumerate(ones):
        assert all(getattr(d, f)[i] == getattr(one, f) for f in FIELDS)


def test_errors_match_reference():
    config = ref_config()
    for fn, args in ((total_cost, ((0.6, 0.4), config, MC)),
                     (total_cost, ((-0.1, 0.5), config, MC)),
                     (total_cost, ((0.2, 1.4), config, MC)),
                     (total_cost, ((1.2, 1.4), config, MC)),
                     (evaluate_grid, (config, 0.05, [0.2, 0.3], MC)),
                     (evaluate_grid, (config, 0.5, [0.1, -0.2, 0.3], MC)),
                     (evaluate_grid, (config, [0.4, 1.5], [0.1, 0.3], MC))):
        got, error = _outcome(fn, *args)
        want, want_error = _reference(fn.__name__, *args)
        assert want_error is not None and error == want_error
    with pytest.raises(EmptyGridError):
        evaluate_grid(config, 0.05, [0.2, 0.3], MC)
    # an array of thresholds reports its first bad point
    with pytest.raises(ConfigError, match=r"^z_tx=0.1 must be >= z_fl=0.3$"):
        total_cost(([0.1, 0.3, -1.0], [0.2, 0.1, 0.5]), config, MC)


def test_gamma_underflow_is_an_empty_pass():
    config = underflow_config()
    assert staffing(1.0, config) == 0.0
    error = (EmptyPassError, "the reviewer count Gamma underflows to 0 at z_fl=1.0")
    for fn, args in ((reviewer_params, ((1.0, 1.0), config)),
                     (reviewer_variance_rate, (1.0, config)),
                     (reviewer_queue_cost, ((1.0, 1.0), config, MC)),
                     (total_cost, ((1.0, 1.0), config, MC)),
                     (evaluate_grid, (config, 1.0, [0.5, 1.0], MC))):
        assert _outcome(fn, *args)[1] == error, fn.__name__
        assert _reference(fn.__name__, *args)[1] == error, fn.__name__


def test_understaffed_points_are_skipped_or_refused():
    config = understaffed_config()
    grid = [0.0, 0.5, 0.999, 1.0]
    got, skipped = evaluate_grid(config, 1.0, grid, MC)
    want = ref.evaluate_grid(config, 1.0, grid, MC)
    assert [d.z_fl for d in got] == [d.z_fl for d in want] == [0.0, 0.5]
    assert skipped == {"z_tx_below_z_fl": 0, "gamma_below_pass_share": 2}
    for new, old in zip(got, want):
        assert all(_close(getattr(new, f), getattr(old, f)) for f in FIELDS)
    with pytest.raises(EmptyGridError):
        evaluate_grid(config, 1.0, [0.999, 1.0], MC)
    for fn, args in ((reviewer_params, ((1.0, 1.0), config)),
                     (reviewer_variance_rate, (1.0, config)),
                     (reviewer_queue_cost, ((1.0, 1.0), config, MC)),
                     (total_cost, ((1.0, 1.0), config, MC))):
        error = _outcome(fn, *args)[1]
        assert error == (ConfigError, "infeasible design at z_fl=1.0: Gamma is below the "
                                      "passing share, so the split probability q = "
                                      "pass_prob / Gamma exceeds 1")
        assert _reference(fn.__name__, *args)[1] == error, fn.__name__
    # an array call refuses its first understaffed point
    with pytest.raises(ConfigError, match=r"^infeasible design at z_fl=0.999: "):
        total_cost(([0.0, 0.999, 1.0], [1.0, 1.0, 1.0]), config, MC)


def test_triage_cli_counts_skipped_points(tmp_path):
    doc = {"Lambda": 100.0, "p": [0.5, 0.5], "mu": [1.0, 300.0],
           "curves": {"kind": "grid", "z": [0.0, 1.0], "g_toxic": [1.0, 0.0],
                      "g_nontoxic": [1.0, 1.0]},
           "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0,
           "c_tn": -3.0, "c_r": 800.0, "delay_costs": [15.0, 1.0]}
    config_path = tmp_path / "triage.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    # z_fl = 0.99 is staffed, 0.995 is not (q = 1.2), 1.0 lies above --ztx
    result = CliRunner().invoke(main, ["triage", "--config", str(config_path), "--zfl-grid",
                                       "0.99:1.0:3", "--ztx", "0.999", "--paths", "50",
                                       "--steps", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid_points"] == 1
    assert manifest["skipped"] == {"z_tx_below_z_fl": 1, "gamma_below_pass_share": 1}


# --------------------------------------------- empty predicted label: the limit

@pytest.mark.parametrize("z_tx, z_fl, z_near", [
    (0.5, 0.5, 0.5 - 1e-9),       # z_fl = z_tx: nothing is labeled non-toxic
    (1.0, 0.3, None),             # z_tx = 1: nothing is labeled toxic
])
def test_queue_cost_is_continuous_at_an_empty_label(z_tx, z_fl, z_near):
    config = ref_config()
    mc = McParams(n_paths=400, n_steps=200, seed=0)
    at = reviewer_queue_cost((z_fl, z_tx), config, mc)
    with pytest.raises(ZeroColumnError):
        ref.reviewer_queue_cost((z_fl, z_tx), config, mc)
    near = (z_near, z_tx) if z_near is not None else (z_fl, z_tx - 1e-9)
    beside = reviewer_queue_cost(near, config, mc)
    assert beside == pytest.approx(ref.reviewer_queue_cost(near, config, mc), rel=RTOL)
    assert np.isfinite(at) and at > 0.0
    assert at == pytest.approx(beside, rel=1e-6)


@pytest.mark.parametrize("ztx", ["0.5", "1.0"])
def test_triage_cli_grid_ending_at_ztx(tmp_path, ztx):
    doc = {"Lambda": 50000.0, "p": [0.2, 0.8], "mu": [50.0, 200.0],
           "curves": {"kind": "gaussian_logit", "loc": [-1.0, -3.0], "scale": [1.0, 1.0]},
           "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0,
           "c_tn": -3.0, "c_r": 800.0, "delay_costs": [15.0, 1.0]}
    config_path = tmp_path / "triage.json"
    config_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["triage", "--config", str(config_path), "--zfl-grid",
                                       f"0.05:{ztx}:10", "--ztx", ztx, "--paths", "100",
                                       "--steps", "100", "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "triage.csv").read_text().splitlines()
    assert len(rows) == 1 + 10 + 1
    assert all(np.isfinite(float(x)) for row in rows[1:] for x in row.split(","))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid_points"] == 10
    best = rows[-1].split(",")
    assert manifest["argmin"] == {"z_fl": float(best[0]), "z_tx": float(best[1])}
