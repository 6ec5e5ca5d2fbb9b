"""Seeded input generator for the pqsched benchmark.

Everything a workload feeds the CLI is written here, from the benchmark
seed alone, before any timing starts: system configs, the triage config,
candidate confusion-matrix files and the validation CSV.  The fixed
configs reproduce systems the test suite already validates; the seed
drives the random candidates, the validation rows and (in run.py) the
CLI --seed of every command, so one seed always gives the same inputs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# Two-class reference classifier of the test suite.
REF_Q = [[0.9, 0.1], [0.2, 0.8]]

N_CANDIDATES = 1000
N_VALIDATION_ROWS = 200_000


def ten_class_config() -> dict:
    """Acceptance criterion 1: five content groups, each split into a toxic
    and a non-toxic class, confused only within a group.  lam=100, T=1."""
    lam_tox = [4.2, 2.9, 3.4, 5.0, 2.7]
    lam_non = [12.4, 6.1, 22.1, 33.4, 7.8]
    mu_tox = [100.0, 30.0, 110.0, 25.0, 15.0]
    c_tox = [10.0, 22.0, 12.0, 20.0, 25.0]
    acc_tox = [0.598, 0.657, 0.688, 0.670, 0.547]
    acc_non = [0.882, 0.860, 0.959, 0.960, 0.903]
    p, mu, costs = [], [], []
    q = np.zeros((10, 10))
    for g in range(5):
        p += [lam_tox[g] / 100.0, lam_non[g] / 100.0]
        mu += [mu_tox[g], 150.0]
        costs += [{"coeff": c_tox[g], "power": 2.0}, {"coeff": 1.0, "power": 2.0}]
        i = 2 * g
        q[i, i], q[i, i + 1] = acc_tox[g], 1.0 - acc_tox[g]
        q[i + 1, i], q[i + 1, i + 1] = 1.0 - acc_non[g], acc_non[g]
    return {"lambda": 100.0, "prevalences": p, "service_rates": mu,
            "costs": costs, "confusion": q.tolist(), "horizon": 1.0}


def critical_config() -> dict:
    """The tests' critical_config (lam=100, mu=(150, 75), rho=1 exactly),
    run to T=100."""
    return {"lambda": 100.0, "prevalences": [0.5, 0.5],
            "service_rates": [150.0, 75.0],
            "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 4.0, "power": 2.0}],
            "confusion": REF_Q, "horizon": 100.0}


def reference_config(**overrides) -> dict:
    """The README's two-class system (lam=1, p=(0.3, 0.7), mu=(2, 1))."""
    doc = {"lambda": 1.0, "prevalences": [0.3, 0.7], "service_rates": [2.0, 1.0],
           "costs": [{"coeff": 1.0, "power": 2.0}, {"coeff": 10.0, "power": 2.0}],
           "confusion": REF_Q, "horizon": 1.0}
    doc.update(overrides)
    return doc


def mixed_power_config() -> dict:
    """Cubic cost on class 2, so lower-bound takes the per-point KKT path."""
    return reference_config(costs=[{"coeff": 1.0, "power": 2.0},
                                   {"coeff": 10.0, "power": 3.0}])


def lognormal_config() -> dict:
    """The README's dict form of a lognormal service law."""
    return reference_config(service_dist={"family": "lognormal", "sigma": 0.5})


def triage_config() -> dict:
    """The README's triage example."""
    return {"Lambda": 50000, "p": [0.2, 0.8], "mu": [50, 200],
            "curves": {"kind": "gaussian_logit", "loc": [-1, -3], "scale": [1, 1]},
            "c_trp": 20, "c_trn": -3, "c_fp": 3, "c_fn": 3, "c_tp": -3, "c_tn": -3,
            "c_r": 800, "delay_costs": [15, 1]}


def candidate_models(rng: np.random.Generator, n: int, k: int) -> list:
    """Random row-stochastic K x K classifiers: a diagonal accuracy in
    [0.5, 0.99) per row, the error mass spread by a Dirichlet draw."""
    models = []
    for i in range(n):
        acc = rng.uniform(0.5, 0.99, size=k)
        noise = rng.dirichlet(np.ones(k - 1), size=k)
        q = np.zeros((k, k))
        for row in range(k):
            q[row, np.arange(k) != row] = (1.0 - acc[row]) * noise[row]
            q[row, row] = acc[row]
            q[row] /= q[row].sum()
        models.append({"name": f"cand{i:04d}", "confusion": q.tolist()})
    return models


def validation_rows(rng: np.random.Generator, n: int) -> str:
    """Binary validation CSV: 20% toxic, logit-normal scores, exponential
    service times with class means 1/50 and 1/200 (the triage config's mu)."""
    toxic = rng.random(n) < 0.2
    logit = np.where(toxic, rng.normal(1.0, 1.0, n), rng.normal(-1.5, 1.0, n))
    score = 1.0 / (1.0 + np.exp(-logit))
    service = rng.exponential(np.where(toxic, 1.0 / 50.0, 1.0 / 200.0))
    klass = np.where(toxic, 1, 2)
    lines = ["true_class,score,service_time"]
    lines += [f"{k},{s:.6f},{v:.10g}" for k, s, v in zip(klass.tolist(),
                                                       score.tolist(),
                                                       service.tolist())]
    return "\n".join(lines) + "\n"


def _dump(path: Path, doc) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return str(path)


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs of one workload under `out`; return their paths."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x9E3779B9])
    if workload == "sim-short-10class":
        return {"config": _dump(out / "ten_class.json", ten_class_config())}
    if workload == "sim-long-critical":
        return {"config": _dump(out / "critical_T100.json", critical_config())}
    if workload != "analytics":
        raise ValueError(f"unknown workload {workload!r}")
    model_dir = out / "models"
    model_dir.mkdir(exist_ok=True)
    models = [_dump(model_dir / f"{m['name']}.json", m)
              for m in candidate_models(rng, N_CANDIDATES, 10)]
    csv_path = out / "validation.csv"
    csv_path.write_text(validation_rows(rng, N_VALIDATION_ROWS), encoding="utf-8")
    return {
        "mixed_config": _dump(out / "mixed_power.json", mixed_power_config()),
        "lognormal_config": _dump(out / "lognormal.json", lognormal_config()),
        "select_config": _dump(out / "ten_class.json", ten_class_config()),
        "triage_config": _dump(out / "triage.json", triage_config()),
        "models": models,
        "validation_csv": str(csv_path),
    }
