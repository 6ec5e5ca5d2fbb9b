"""select-model and triage against the per-object oracles of reference_cli:
the same error line for any mix of candidate files, and the same bytes."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqsched import McParams, config_from_json
from pqsched.cli import main
from pqsched.errors import PqschedError
from pqsched.model import write_csv
from pqsched.triage import load_triage_config
from helpers import bench_inputs
import reference_cli as ref

BENCH = bench_inputs()
# rho = 1, so no HeavyTrafficDeviation warning reaches stderr
SYSTEM = {"lambda": 1.0, "prevalences": [0.5, 0.5], "service_rates": [1.0, 1.0],
          "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 10.0, "power": 2.0}],
          "confusion": [[1.0, 0.0], [0.0, 1.0]], "horizon": 1.0}

# every text but the good ones is at fault; wrong_k is refused as not K x K
CANDIDATES = {
    "truncated": '{"name": "m", "confusion": [[0.9, 0.1], [0.2',
    "no_confusion": '{"name": "m"}',
    "not_square": "[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]",
    "ragged": "[[0.5, 0.5], [1.0]]",
    "out_of_range": "[[1.5, -0.5], [0.2, 0.8]]",
    "nan": "[[NaN, 1.0], [0.2, 0.8]]",
    "row_sum": "[[0.9, 0.3], [0.2, 0.8]]",
    "out_of_range_and_rows": "[[1.5, 0.3], [0.2, 0.7]]",
    "wrong_k": "[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]",
    "wrong_k_row_sum": "[[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.9]]",
}


@st.composite
def good_candidates(draw):
    """A random 2 x 2 classifier, as a bare array or a named document."""
    rows = [[a, 1.0 - a] for a in (draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)))]
    if draw(st.booleans()):
        return json.dumps(rows)
    return json.dumps({"name": draw(st.sampled_from(("a", "b", "a,b", 'q"1'))),
                       "confusion": rows})


candidates = good_candidates() | st.sampled_from(sorted(CANDIDATES)).map(CANDIDATES.get)


def _run(args, out):
    result = CliRunner().invoke(main, [*args, "--out", str(out)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.output
    return result


@settings(max_examples=80, deadline=None)
@given(texts=st.lists(candidates, min_size=1, max_size=6))
# two files of the wrong K: the first is named
@example(texts=[CANDIDATES["wrong_k"], "[[1.0, 0.0], [0.0, 1.0]]", CANDIDATES["wrong_k"]])
def test_select_model_error_and_bytes_match_the_per_file_oracle(texts):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "system.json").write_text(json.dumps(SYSTEM))
        paths = []
        for i, text in enumerate(texts):
            paths.append(str(tmp / f"m{i}.json"))
            Path(paths[-1]).write_text(text)
        out = tmp / "out"
        result = _run(["select-model", "--config", str(tmp / "system.json"),
                       *(arg for p in paths for arg in ("--model", p))], out)
        try:
            want, error = ref.select_model(paths, config_from_json(SYSTEM)), None
        except PqschedError as exc:
            want, error = None, f"Error: {exc}"
        if error is not None:
            assert (result.exit_code, result.stdout, result.stderr) == (1, "", error + "\n")
            assert not out.exists()
            return
        assert result.exit_code == 0, result.output
        rows, lines = want
        write_csv(tmp / "want.csv", ["model_name", *ref.CRITERIA], rows)
        assert (out / "criteria.csv").read_bytes() == (tmp / "want.csv").read_bytes()
        assert result.stdout == "\n".join(lines + [f"manifest: {out / 'manifest.json'}"]) + "\n"


def test_select_model_bytes_on_the_benchmark_candidates(tmp_path):
    rng = np.random.default_rng([0, 0x9E3779B9])   # bench/inputs.py's seed-0 candidates
    paths = []
    for m in BENCH.candidate_models(rng, BENCH.N_CANDIDATES, 10):
        paths.append(str(tmp_path / f"{m['name']}.json"))
        Path(paths[-1]).write_text(json.dumps(m))
    system = BENCH.ten_class_config()
    (tmp_path / "system.json").write_text(json.dumps(system))
    out = tmp_path / "out"
    result = _run(["select-model", "--config", str(tmp_path / "system.json"),
                   *(arg for p in paths for arg in ("--model", p))], out)
    assert result.exit_code == 0, result.output
    rows, lines = ref.select_model(paths, config_from_json(system))
    write_csv(tmp_path / "want.csv", ["model_name", *ref.CRITERIA], rows)
    assert (out / "criteria.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert result.stdout == "\n".join(lines + [f"manifest: {out / 'manifest.json'}"]) + "\n"


def _plateau():
    """Curves flat on [0.2, 0.6]: every filtering level there costs the same."""
    curves = {"kind": "grid", "z": [0.0, 0.2, 0.6, 1.0],
              "g_toxic": [1.0, 0.8, 0.8, 0.0], "g_nontoxic": [1.0, 0.3, 0.3, 0.0]}
    return {**BENCH.triage_config(), "curves": curves}


def _understaffed():
    """Only the fast non-toxic class passes near z_fl = 1, so high filtering
    levels are staffed below their passing share and skipped."""
    return {"Lambda": 100.0, "p": [0.5, 0.5], "mu": [1.0, 300.0],
            "curves": {"kind": "grid", "z": [0.0, 1.0], "g_toxic": [1.0, 0.0],
                       "g_nontoxic": [1.0, 1.0]},
            "c_trp": 20.0, "c_trn": -3.0, "c_fp": 3.0, "c_fn": 3.0, "c_tp": -3.0, "c_tn": -3.0,
            "c_r": 800.0, "delay_costs": [15.0, 1.0]}


NONE_SKIPPED = {"z_tx_below_z_fl": 0, "gamma_below_pass_share": 0}


@pytest.mark.parametrize("doc, grid, ztx, mc, skipped, all_tied", [
    # the benchmark's triage call: 2000 points at the default Monte Carlo controls
    pytest.param(BENCH.triage_config(), (0.05, 0.48, 2000), 0.5, McParams(2000, 400, 3),
                 NONE_SKIPPED, False, id="benchmark"),
    pytest.param(BENCH.triage_config(), (0.05, 0.8, 60), 0.5, McParams(200, 100, 1),
                 {"z_tx_below_z_fl": 24, "gamma_below_pass_share": 0}, False, id="above-ztx"),
    pytest.param(_understaffed(), (0.95, 1.0, 11), 1.0, McParams(200, 100, 2),
                 {"z_tx_below_z_fl": 0, "gamma_below_pass_share": 2}, False, id="understaffed"),
    # ties: a plateau of equal totals, and one level repeated
    pytest.param(_plateau(), (0.2, 0.6, 9), 0.7, McParams(200, 100, 0), NONE_SKIPPED, True,
                 id="plateau"),
    pytest.param(_plateau(), (0.3, 0.3, 3), 0.7, McParams(200, 100, 0), NONE_SKIPPED, True,
                 id="repeated"),
])
def test_triage_bytes_match_the_per_point_oracle(tmp_path, doc, grid, ztx, mc, skipped,
                                                 all_tied):
    (tmp_path / "triage.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    result = _run(["triage", "--config", str(tmp_path / "triage.json"),
                   "--zfl-grid", ":".join(map(str, grid)), "--ztx", str(ztx),
                   "--paths", str(mc.n_paths), "--steps", str(mc.n_steps),
                   "--seed", str(mc.seed)], out)
    assert result.exit_code == 0, result.output
    config = load_triage_config(tmp_path / "triage.json")
    decisions, want_skipped = ref.evaluate_grid(config, ztx, np.linspace(*grid), mc)
    rows, line, argmin = ref.triage(decisions)
    write_csv(tmp_path / "want.csv", ref.TRIAGE_HEADER, rows)
    assert (out / "triage.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert result.stdout == f"{line}\nmanifest: {out / 'manifest.json'}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["skipped"] == want_skipped == skipped
    assert (manifest["grid_points"], manifest["argmin"]) == (len(decisions), argmin)
    # every total ties: the first point is the one repeated
    assert (len({d.total for d in decisions}) == 1) == all_tied
    assert rows[-1] == rows[0] or not all_tied
