"""The benchmark's workloads, run in a process of their own.

Usage (normally started by run.py):  python3 bench/workloads.py SPEC.json

SPEC names the workload, its generated inputs, the benchmark seed, the
seconds to measure and whether to trace.  The process imports pqsched,
then runs rounds of the workload's CLI commands back to back, in process
(`pqsched.cli.main(..., standalone_mode=False)`), until the time is up.
Every command's output is checked after it returns, outside the timing.
A first, untimed round warms caches and the CPU up.

Set-up probes (a fresh interpreter importing pqsched and pqsched.cli and
loading the workload's configs) run between commands, about SETUP_PROBES
times spread over the run, so that slow and fast stretches of the machine
hit the set-up time and the workload's own timings alike.  Every command
and probe is timed on the least contended CPU and its time is corrected
for contention from other machines on the host (see Contention).

With tracing on, untraced and traced rounds alternate: the wrappers are
installed before each traced round and removed after it.  The tracing
overhead is the median, over (untraced, traced) pairs of neighbouring
rounds, of traced over untraced round time, minus one.
The result, with the process's own peak RSS, is written as JSON to
SPEC["result"].
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import tracing

_clock = time.perf_counter

# Sizes give each 20 s run 5-10 timed rounds; BENCHMARK.json says why each
# workload exists.
SIM_SHORT_PATHS = 500
SIM_LONG_PATHS = 10
LONG_RBM = ("4000", "2500")       # paths, steps of the T=100 cost floor
# small, so that simulate alone sets sim-short's wall time and peak RSS
SHORT_RBM = ("500", "200")        # paths, steps of the T=1 cost floor
SHORT_RBM_REPEATS = 3
MIXED_RBM = ("8", "100")          # paths, steps: one KKT solve per point
TRIAGE_GRID = "0.05:0.48:2000"
SELECT_REPEATS = 3
TRIAGE_REPEATS = 3
SETUP_PROBES = 16                 # set-up probes spread over a run
MIN_SETUP_PROBES = 8
# calibration kernel (see Contention): its time on an uncontended CPU of
# the AMD EPYC host the bounds were set on, and its two parts
CAL_REF_S = 1.25e-3
CAL_LOOP = 25_000
CAL_ARRAY = 200_000

_SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import pqsched, pqsched.cli
from pqsched.model import load_config
from pqsched.triage import load_triage_config
for kind, path in zip(sys.argv[1::2], sys.argv[2::2]):
    (load_triage_config if kind == "triage_config" else load_config)(path)
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Command:
    """One CLI call of a round: `metric` groups calls for the end-to-end
    table, `check` reads the outputs back."""

    label: str
    argv: list
    metric: str
    check: Callable
    units: int = 1            # DES paths for simulate, else 1
    golden_key: Optional[str] = None
    probe: bool = False       # known-defect probe: reported, never gated


def cli_seed(seed: int, round_no: int, rep: int = 0) -> int:
    """Distinct CLI seed per (benchmark seed, round, repeat); round 0,
    repeat 0 of the default seed is the one the golden values pin."""
    return seed * 100_000 + round_no * 100 + rep


def _flags(flag: str, values: list) -> list:
    return [arg for v in values for arg in (flag, v)]


def round_commands(workload: str, inputs: dict, seed: int, round_no: int,
                   out: Path) -> list:
    s = str(cli_seed(seed, round_no))
    if workload == "sim-short-10class":
        cfg = inputs["config"]
        policies = ["oracle", "pcmu", "naive"]
        return [
            Command("simulate", ["simulate", "--config", cfg,
                                 *_flags("--policy", policies),
                                 "--paths", str(SIM_SHORT_PATHS), "--seed", s,
                                 "--out", str(out / "simulate")],
                    "simulate_s", lambda o: checks.check_simulate(o, policies),
                    units=SIM_SHORT_PATHS * len(policies), golden_key="simulate"),
        ] + [
            Command("lower-bound", ["lower-bound", "--config", cfg,
                                    "--paths", SHORT_RBM[0], "--steps", SHORT_RBM[1],
                                    "--seed", str(cli_seed(seed, round_no, rep)),
                                    "--out", str(out / "lower-bound")],
                    "lower_bound_s", checks.check_lower_bound,
                    golden_key="lower-bound" if rep == 0 else None)
            for rep in range(SHORT_RBM_REPEATS)
        ]
    if workload == "sim-long-critical":
        cfg = inputs["config"]
        policies = ["fcfs", "pcmu"]
        return [
            Command("simulate", ["simulate", "--config", cfg,
                                 *_flags("--policy", policies),
                                 "--paths", str(SIM_LONG_PATHS), "--seed", s,
                                 "--out", str(out / "simulate")],
                    "simulate_s", lambda o: checks.check_simulate(o, policies),
                    units=SIM_LONG_PATHS * len(policies), golden_key="simulate"),
            Command("lower-bound", ["lower-bound", "--config", cfg,
                                    "--paths", LONG_RBM[0], "--steps", LONG_RBM[1],
                                    "--seed", s, "--out", str(out / "lower-bound")],
                    "lower_bound_s", checks.check_lower_bound, golden_key="lower-bound"),
        ]
    if workload != "analytics":
        raise ValueError(f"unknown workload {workload!r}")
    models = inputs["models"]
    n_points = int(TRIAGE_GRID.rsplit(":", 1)[1])
    cmds = [
        Command("lower-bound", ["lower-bound", "--config", inputs["mixed_config"],
                                "--paths", MIXED_RBM[0], "--steps", MIXED_RBM[1],
                                "--seed", s, "--out", str(out / "lower-bound")],
                "lower_bound_s", checks.check_lower_bound, golden_key="lower-bound"),
        # known defect: the analytics read distribution tags as strings, so
        # lower-bound crashes on the README's dict-form lognormal config
        Command("lognormal-probe", ["lower-bound", "--config", inputs["lognormal_config"],
                                    "--paths", "100", "--steps", "100", "--seed", s,
                                    "--out", str(out / "probe")],
                "probe_s", checks.check_lower_bound, probe=True),
    ]
    for rep in range(SELECT_REPEATS):
        cmds.append(Command(
            "select-model", ["select-model", "--config", inputs["select_config"],
                             *_flags("--model", models),
                             "--out", str(out / "select-model")],
            "select_model_s", lambda o: checks.check_select_model(o, len(models)),
            golden_key="select-model" if rep == 0 else None))
    for rep in range(TRIAGE_REPEATS):
        # a fresh seed per call, so triage's in-process RBM cache never serves
        cmds.append(Command(
            "triage", ["triage", "--config", inputs["triage_config"],
                       "--zfl-grid", TRIAGE_GRID, "--ztx", "0.5",
                       "--seed", str(cli_seed(seed, round_no, rep)),
                       "--out", str(out / "triage")],
            "triage_s", lambda o: checks.check_triage(o, n_points),
            golden_key="triage" if rep == 0 else None))
    cmds.append(Command(
        "estimate", ["estimate", "--csv", inputs["validation_csv"], "--threshold", "0.5",
                     "--out", str(out / "estimate")],
        "estimate_s", checks.check_estimate, golden_key="estimate"))
    return cmds


@dataclass
class Outcome:
    label: str
    metric: str
    wall_s: float
    units: int
    ok: bool
    probe: bool
    problems: list = field(default_factory=list)
    cal_s: float = 0.0        # calibration kernel time around the command
    scaled_s: float = 0.0     # wall_s corrected for contention (see Contention)


def run_command(main, cmd: Command, golden: Optional[dict],
                values_sink: Optional[dict]) -> Outcome:
    """Run one command, check its outputs and, when given, keep its headline
    values in values_sink and compare them with the golden ones."""
    out_dir = Path(cmd.argv[cmd.argv.index("--out") + 1])
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = _clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main(cmd.argv, standalone_mode=False)
        error = None
    except Exception as exc:  # any failure of the program is a failed command
        error = f"{type(exc).__name__}: {exc}"
    wall = _clock() - t0
    if error is not None:
        return Outcome(cmd.label, cmd.metric, wall, cmd.units, False, cmd.probe, [error])
    try:
        problems, values = cmd.check(out_dir)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        problems, values = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
    if cmd.golden_key is not None and values_sink is not None:
        values_sink[cmd.golden_key] = values
        if golden is not None:
            problems += checks.compare_golden(values, golden.get(cmd.golden_key, {}))
    return Outcome(cmd.label, cmd.metric, wall, cmd.units, not problems, cmd.probe, problems)


class Contention:
    """Corrects timings for other machines sharing the host's cores.

    While another machine runs on the sibling hardware thread of one of our
    CPUs, the same instructions take up to twice the cycles, for stretches
    of seconds to minutes, and independently on each CPU.  Before each
    command or set-up probe the process is pinned to the CPU that runs a
    short calibration kernel fastest; the kernel is timed again after it,
    and the measured time is scaled by CAL_REF_S over the kernel's mean
    time.  The kernel is half interpreter loop, which slows like the
    simulator and the fresh-process import (about 1.7x from an uncontended
    to a contended stretch), and half numpy, which slows like the RBM
    (about 1.3x), so neither kind of command is corrected far off.
    Processes started after `settle` inherit its pinning."""

    def __init__(self, cpus: list):
        self.cpus = cpus
        self.data = np.random.default_rng(0).random(CAL_ARRAY)
        # preallocated, so the kernel's time does not depend on how the
        # allocator has been left by the commands before it
        self.buf = np.empty_like(self.data)
        self.out = np.empty_like(self.data)

    def kernel(self) -> float:
        t0 = _clock()
        total = 0
        for i in range(CAL_LOOP):
            total += i * i
        np.cumsum(np.exp(self.data, out=self.buf), out=self.out)
        return _clock() - t0

    def settle(self) -> float:
        """Pin to the least contended CPU and return its kernel time."""
        if len(self.cpus) < 2:
            return min(self.kernel(), self.kernel())
        times = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            times[cpu] = min(self.kernel(), self.kernel())
        best = min(times, key=times.get)
        os.sched_setaffinity(0, {best})
        return times[best]

    def scale(self, wall_s: float, before_s: float) -> tuple:
        """(kernel time around the measurement, wall_s scaled to CAL_REF_S)."""
        cal_s = (before_s + min(self.kernel(), self.kernel())) / 2
        return cal_s, wall_s * CAL_REF_S / cal_s


class SetupProbe:
    """Fresh-process set-up timings, taken every `interval` seconds at
    command boundaries, as (wall_s, cal_s, scaled_s)."""

    def __init__(self, config_args: list, interval: float, contention: Contention):
        self.argv = [sys.executable, "-c", _SETUP_SNIPPET, *config_args]
        self.interval = interval
        self.contention = contention
        self.samples: list = []
        self.due = _clock()

    def run(self) -> tuple:
        before = self.contention.settle()
        proc = subprocess.run(self.argv, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        wall = float(proc.stdout.strip().splitlines()[-1])
        return (wall, *self.contention.scale(wall, before))

    def tick(self):
        if _clock() >= self.due:
            self.samples.append(self.run())
            self.due = _clock() + self.interval

    def top_up(self):
        while len(self.samples) < MIN_SETUP_PROBES:
            self.samples.append(self.run())


def run_rounds(main, spec: dict, seconds: float, contention: Contention,
               first_round: int = 0,
               golden: Optional[dict] = None, values_sink: Optional[dict] = None,
               probe: Optional[SetupProbe] = None, tracer=None) -> list:
    """Rounds first_round, first_round + 1, ... until `seconds` have passed
    (at least one round), as (traced, outcomes) pairs.  With a tracer, every
    second round is traced, and the run ends on a traced round.  Round
    numbers pick the CLI seeds, so no two rounds of a run repeat a seed.
    Only round 0 is held to golden values."""
    rounds = []
    out = Path(spec["workdir"]) / "out"
    start = _clock()
    while (not rounds or _clock() - start < seconds
           or (tracer is not None and len(rounds) % 2)):
        r = first_round + len(rounds)
        traced = tracer is not None and len(rounds) % 2 == 1
        cmds = round_commands(spec["workload"], spec["inputs"], spec["seed"], r, out)
        sink = values_sink if r == 0 else None
        outcomes = []
        if traced:
            tracing.install(tracer)
        try:
            for c in cmds:
                before = contention.settle()
                outcome = run_command(main, c, golden, sink)
                outcome.cal_s, outcome.scaled_s = contention.scale(outcome.wall_s, before)
                outcomes.append(outcome)
                if probe is not None:
                    probe.tick()
        finally:
            if traced:
                tracer.restore()
        rounds.append((traced, outcomes))
    return rounds


def round_time(outcomes: list) -> float:
    return sum(o.scaled_s for o in outcomes if not o.probe)


def main_child(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    import pqsched.cli

    src = Path(spec["src"]).resolve()
    if src not in Path(pqsched.__file__).resolve().parents:
        print(f"pqsched imported from {pqsched.__file__}, not from {src}", file=sys.stderr)
        return 2
    main = pqsched.cli.main
    # golden values exist for the default seed only
    golden = spec["golden"] if spec["seed"] == checks.DEFAULT_SEED else None
    values: dict = {}
    seconds = spec["seconds"]
    result = {"workload": spec["workload"]}
    contention = Contention(sorted(os.sched_getaffinity(0)))
    # round 0 warms caches and the CPU up; it is checked but never timed
    warmup = run_rounds(main, spec, 0.0, contention, 0, golden, values)
    probe = SetupProbe(spec["setup_args"], seconds / SETUP_PROBES, contention)
    probe.run()  # untimed, warms the page cache for the imports
    tracer = tracing.Tracer() if spec["trace"] else None
    rounds = run_rounds(main, spec, seconds, contention, 1, probe=probe, tracer=tracer)
    probe.top_up()
    if tracer is not None:
        walls = [round_time(outcomes) for _, outcomes in rounds]
        overhead = statistics.median(t / u - 1.0 for u, t in zip(walls[::2], walls[1::2]))
        traced_rounds = sum(traced for traced, _ in rounds)
        layers = tracing.layer_metrics(tracer, traced_rounds)
        layers["trace.overhead_frac"] = (overhead, "frac")
        result["layers"] = {k: {"value": float(v), "unit": u} for k, (v, u) in layers.items()}
        result["traced_rounds"] = traced_rounds
        result["trace_faults"] = {"missing": tracer.missing,
                                  "observer_errors": tracer.observer_errors}
        result["spans"] = tracer.spans
    result["rounds"] = (
        [{"warmup": True, "traced": False, "outcomes": [o.__dict__ for o in r]}
         for _, r in warmup]
        + [{"warmup": False, "traced": traced, "outcomes": [o.__dict__ for o in r]}
           for traced, r in rounds])
    result["setup"] = [dict(zip(("wall_s", "cal_s", "scaled_s"), t)) for t in probe.samples]
    result["cal_ref_s"] = CAL_REF_S
    result["golden_values"] = values
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main_child(sys.argv[1]))
    except Exception:
        traceback.print_exc()
        sys.exit(1)
