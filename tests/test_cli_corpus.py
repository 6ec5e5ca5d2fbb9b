"""Pinned CLI output: each run of the corpus under tests/cli_corpus/ gives,
in-process, the bytes recorded there -- every file it writes, its stdout, and
its manifest without the unpinned keys (timings, wall clock, config path).
Input paths the manifest or stdout lists read as <corpus>/..., and the output
directory as <out>.

The inputs are fixed files in the corpus, made by the benchmark's generators
(bench/inputs.py).  `PQSCHED_RECORD_CORPUS=1 python -m pytest
tests/test_cli_corpus.py` writes the inputs and re-records every run from the
current code; a change that moves a byte on purpose lists the moved files and
rows in CHANGES.md.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from pqsched.cli import main
from helpers import bench_inputs

CORPUS = Path(__file__).parent / "cli_corpus"
RECORD = os.environ.get("PQSCHED_RECORD_CORPUS") == "1"
BENCH = bench_inputs()
_CANDIDATES = BENCH.candidate_models(np.random.default_rng([0, 1]), 20, 10)
_MODELS = [f"select-model/models/{m['name']}.json" for m in _CANDIDATES]

# corpus input -> its document (a JSON value, or the text of a CSV)
INPUTS = {
    "simulate/critical_T10.json": BENCH.critical_config() | {"horizon": 10.0},
    "simulate/critical_T2.json": BENCH.critical_config() | {"horizon": 2.0},
    "lower-bound/critical.json": BENCH.critical_config(),
    "lower-bound/mixed_power.json": BENCH.mixed_power_config(),
    "select-model/ten_class.json": BENCH.ten_class_config(),
    **dict(zip(_MODELS, _CANDIDATES)),
    "triage/triage.json": BENCH.triage_config(),
    "estimate/validation.csv": BENCH.validation_rows(np.random.default_rng([0, 2]), 2000),
}

# run directory -> the command's arguments before --out; a corpus input
# stands for its path
RUNS = {
    "simulate/summary": ["--config", "simulate/critical_T10.json", "--policy", "fcfs",
                         "--policy", "pcmu", "--paths", "20", "--seed", "0"],
    "simulate/path": ["--config", "simulate/critical_T2.json", "--policy", "fcfs",
                      "--policy", "pcmu", "--paths", "1", "--seed", "0"],
    "lower-bound/critical": ["--config", "lower-bound/critical.json", "--paths", "64",
                             "--steps", "100", "--seed", "3"],
    "lower-bound/mixed_power": ["--config", "lower-bound/mixed_power.json", "--paths", "64",
                                "--steps", "100", "--seed", "3"],
    "select-model/ranking": ["--config", "select-model/ten_class.json",
                             *(arg for path in _MODELS for arg in ("--model", path))],
    "triage/grid": ["--config", "triage/triage.json", "--zfl-grid", "0.05:0.6:60",
                    "--paths", "64", "--steps", "100", "--seed", "1"],
    "estimate/plain": ["--csv", "estimate/validation.csv"],
    "estimate/threshold": ["--csv", "estimate/validation.csv", "--threshold", "0.5"],
}

UNPINNED = ("config", "timings_s", "wall_clock_s")


def _record_inputs(run: str):
    for arg in RUNS[run]:
        if arg in INPUTS:
            (CORPUS / arg).parent.mkdir(parents=True, exist_ok=True)
            if isinstance(INPUTS[arg], str):
                (CORPUS / arg).write_text(INPUTS[arg], encoding="utf-8")
            else:
                BENCH._dump(CORPUS / arg, INPUTS[arg])


def _outputs(run: str, out: Path) -> dict:
    """Name -> bytes of what the run writes into out, as the corpus holds it."""
    args = [str(CORPUS / arg) if arg in INPUTS else arg for arg in RUNS[run]]
    result = CliRunner().invoke(main, [run.split("/")[0], *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    for key in UNPINNED:
        del manifest[key]
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    files["manifest.json"] = text.replace(str(CORPUS), "<corpus>").encode()
    files["stdout.txt"] = result.stdout.replace(str(out), "<out>").encode()
    return files


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_output_bytes_are_pinned(tmp_path, run):
    target = CORPUS / run
    if RECORD:
        _record_inputs(run)
    got = _outputs(run, tmp_path / "out")
    if RECORD:
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file, data in got.items():
            (target / file).write_bytes(data)
    want = {p.name: p.read_bytes() for p in sorted(target.iterdir())}
    assert sorted(got) == sorted(want)
    for file in want:
        assert got[file] == want[file], f"{run}/{file}"
