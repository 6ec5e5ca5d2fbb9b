"""pqsched benchmark: end-to-end speed of the CLI, and a traced per-module run.

    python3 bench/run.py --workload sim-short-10class --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  sim-short-10class   simulate oracle/pcmu/naive on the 10-class system, T=1
  sim-long-critical   simulate fcfs/pcmu at rho=1, T=100, then lower-bound
  analytics           lower-bound (mixed powers), select-model, triage, estimate
  all                 each of the above in turn

Load model: batch, closed loop, one thread.  One process runs a workload's
commands back to back; BLAS thread variables are pinned to 1 and
PQSCHED_THREADS is unset, so the package's default of one worker is what
is measured.  Inputs are generated from --seed before anything is timed,
and the program only ever sees the generated files.

End-to-end metrics (--trace 0, and the table of every run):
  setup_s        median over about 16 fresh processes, started between the
                 workload's commands throughout the run, of importing
                 pqsched and pqsched.cli and loading the workload's configs
  wall_s         median time of one untraced round of the workload's
                 commands (a first, untimed round warms caches and the CPU up)
  lower_bound_s  median time of one lower-bound command
  peak_rss_mb    ru_maxrss of the process that ran the workload
Every time is corrected for contention: other machines on the host slow
our CPUs by up to 2x for seconds to minutes at a time, so each command and
set-up probe runs on the least contended CPU and its wall time is scaled by
a calibration kernel timed on that CPU around it (workloads.Contention).
The table also prints the uncorrected medians (wall_s.raw, setup_s.raw)
and the median slowdown the kernel saw (host_slowdown).
The table adds paths_per_s (simulate), select_model_s, triage_s and
estimate_s (median per call), and fail_frac, which counts the known-defect
probe (analytics runs lower-bound on the README's dict-form lognormal
config, which raises AttributeError at this commit).  The probe is
reported, but left out of `attempted`/`failed` and of every timing, so the
result line covers only operations expected to succeed.

--trace 1 prints the per-module table instead (see tracing.py): the calls
into each module's public functions are timed from outside by wrapping the
module attributes their callers look up.  Traced and untraced rounds
alternate, and the wrappers are removed after each traced round.

--record-golden (at the default seed, 0) stores round 0's checked values in
bench/golden.json; every later run at seed 0 is held to them.

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Everything else the run measured goes to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("sim-short-10class", "sim-long-critical", "analytics")
# the end-to-end metrics of BENCHMARK.json
GATED = ("setup_s", "wall_s", "lower_bound_s", "peak_rss_mb")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The whole run has to end within 180 s.
CHILD_TIMEOUT_S = 150.0


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("PQSCHED_THREADS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "thread_vars": {v: "1" for v in THREAD_VARS},
        "PQSCHED_THREADS": None,
        # net source lines of the package, tracked next to the timings
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict) -> dict:
    """Every timing comes from the timed, untraced rounds only, corrected
    for contention."""
    calls: dict[str, list] = {}
    paths_per_s = []
    round_walls = []
    raw_walls = []
    timed = [r["outcomes"] for r in result["rounds"] if not (r["warmup"] or r["traced"])]
    for outcomes in timed:
        round_walls.append(sum(o["scaled_s"] for o in outcomes if not o["probe"]))
        raw_walls.append(sum(o["wall_s"] for o in outcomes if not o["probe"]))
        for o in outcomes:
            if o["ok"] and not o["probe"]:
                calls.setdefault(o["metric"], []).append(o["scaled_s"])
                if o["label"] == "simulate":
                    paths_per_s.append(o["units"] / o["scaled_s"])
    setup = result["setup"]
    table = {
        "setup_s": (_median([p["scaled_s"] for p in setup]), "s"),
        "wall_s": (_median(round_walls), "s"),
        "lower_bound_s": (_median(calls.get("lower_bound_s", [])), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    if paths_per_s:
        table["paths_per_s"] = (_median(paths_per_s), "1/s")
    for metric in ("select_model_s", "triage_s", "estimate_s"):
        if metric in calls:
            table[metric] = (_median(calls[metric]), "s")
    everything = [o for r in result["rounds"] for o in r["outcomes"]]
    table["fail_frac"] = (sum(not o["ok"] for o in everything) / len(everything), "frac")
    table["wall_s.raw"] = (_median(raw_walls), "s")
    table["setup_s.raw"] = (_median([p["wall_s"] for p in setup]), "s")
    cal = [o["cal_s"] for o in everything] + [p["cal_s"] for p in setup]
    table["host_slowdown"] = (_median(cal) / result["cal_ref_s"], "x")
    return table


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 record_golden: bool, env: dict, env_info: dict) -> dict:
    import inputs  # here, so numpy starts with the thread variables pinned

    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    paths = inputs.generate(workload, seed, workdir / "inputs")
    golden_doc = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    result_path = workdir / "child_result.json"
    # alternating input key and path, e.g. triage_config, PATH
    setup_args = [arg for k, v in paths.items() if k.endswith("config") for arg in (k, v)]
    spec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "inputs": paths, "workdir": str(workdir), "src": str(SRC),
            "result": str(result_path), "setup_args": setup_args,
            "golden": None if record_golden else golden_doc.get(workload, {})}
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(BENCH / "workloads.py"), str(spec_path)],
                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed:\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))

    if record_golden:
        golden_doc[workload] = result["golden_values"]
        GOLDEN.write_text(json.dumps(golden_doc, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")

    table = end_to_end(result)
    everything = [o for r in result["rounds"] for o in r["outcomes"]]
    measured = [o for o in everything if not o["probe"]]
    problems = sorted({f"{'known defect, ' if o['probe'] else ''}{o['label']}: {p}"
                       for o in everything for p in o["problems"]})
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env_info, "setup": result["setup"],
              "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
              "per_layer": result.get("layers"), "problems": problems,
              "rounds": result["rounds"], "spans": result.get("spans")}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print(f"== {workload}  seed={seed}  rounds={len(result['rounds'])}"
          f"  traced_rounds={result.get('traced_rounds', 0)}")
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "src_lines"):
        print(f"   env {key}: {env_info[key]}")
    for name, (value, unit) in table.items():
        print(f"   {name:<16} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"   problem: {problem}")
    if trace:
        for kind, faults in result["trace_faults"].items():
            if faults:
                print(f"   trace {kind}: {faults}")
        for name, layer in result["layers"].items():
            print(f"   {name:<48} {layer['value']:>14.6g} {layer['unit']}")
        metrics = result["layers"]
    else:
        metrics = {k: {"value": table[k][0], "unit": table[k][1]} for k in GATED}
    return {"correct": not any(not o["ok"] for o in measured),
            "attempted": len(measured),
            "failed": sum(not o["ok"] for o in measured),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "pqsched" / "__init__.py").is_file():
        print(f"no pqsched sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_golden and args.seed != checks.DEFAULT_SEED:
        print(f"--record-golden needs --seed {checks.DEFAULT_SEED}", file=sys.stderr)
        return 2
    env = child_env()
    os.environ.update({v: "1" for v in THREAD_VARS})
    env_info = environment()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     args.record_golden, env, env_info)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    start = time.monotonic()
    try:
        code = main()
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark failed after {time.monotonic() - start:.1f} s: {exc}",
              file=sys.stderr)
        code = 1
    sys.exit(code)
