"""Pinned CLI output: each run of the corpus under tests/cli_corpus/ gives,
in-process, the bytes recorded there -- every file it writes, its stdout, and
its manifest without the unpinned keys (timings, wall clock, config path).

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

import pytest
from click.testing import CliRunner

from pqsched.cli import main
from helpers import bench_inputs

CORPUS = Path(__file__).parent / "cli_corpus"
RECORD = os.environ.get("PQSCHED_RECORD_CORPUS") == "1"
BENCH = bench_inputs()

# corpus input -> its document
INPUTS = {
    "simulate/critical_T10.json": BENCH.critical_config() | {"horizon": 10.0},
    "simulate/critical_T2.json": BENCH.critical_config() | {"horizon": 2.0},
}

# run directory -> (corpus input, arguments after --config)
RUNS = {
    "simulate/summary": ("simulate/critical_T10.json",
                         ["--policy", "fcfs", "--policy", "pcmu", "--paths", "20", "--seed", "0"]),
    "simulate/path": ("simulate/critical_T2.json",
                      ["--policy", "fcfs", "--policy", "pcmu", "--paths", "1", "--seed", "0"]),
}

UNPINNED = ("config", "timings_s", "wall_clock_s")


def _outputs(run: str, out: Path) -> dict:
    """Name -> bytes of what the run writes into out, as the corpus holds it."""
    name, args = RUNS[run]
    result = CliRunner().invoke(main, [run.split("/")[0], "--config", str(CORPUS / name),
                                       *args, "--out", str(out)])
    assert result.exit_code == 0, result.output
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    manifest = json.loads(files.pop("manifest.json"))
    for key in UNPINNED:
        del manifest[key]
    files["manifest.json"] = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
    files["stdout.txt"] = result.stdout.replace(str(out), "<out>").encode()
    return files


@pytest.mark.parametrize("run", sorted(RUNS))
def test_cli_output_bytes_are_pinned(tmp_path, run):
    name, target = RUNS[run][0], CORPUS / run
    if RECORD:
        (CORPUS / name).parent.mkdir(parents=True, exist_ok=True)
        BENCH._dump(CORPUS / name, INPUTS[name])
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
