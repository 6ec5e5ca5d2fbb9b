"""Output checks for each benchmarked CLI command.

Every check reads what the command wrote under --out and returns
(problems, values): a list of human-readable failures and the headline
numbers used for the golden comparison.  Seed-free invariants hold for any
seed; the golden values in golden.json were recorded at the benchmark's
default seed and are compared with a relative tolerance loose enough that
a last-ulp change in the random draws cannot trip it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
GOLDEN_RTOL = 1e-6
_EPS = 1e-12


def _rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _manifest_problems(out: Path, command: str) -> list:
    target = out / "manifest.json"
    if not target.exists():
        return ["manifest.json missing"]
    with open(target, encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    if manifest.get("command") != command:
        problems.append(f"manifest command {manifest.get('command')!r} != {command!r}")
    for name in manifest.get("outputs", []):
        if not (out / name).exists():
            problems.append(f"manifest lists missing output {name}")
    return problems


def _finite(values: dict) -> list:
    return [f"{k} = {v!r} is not finite" for k, v in values.items()
            if isinstance(v, float) and not math.isfinite(v)]


def check_simulate(out: Path, policies: list) -> tuple:
    problems = _manifest_problems(out, "simulate")
    if problems:
        return problems, {}
    rows = _rows(out / "summary.csv")[1:]
    values = {}
    for kind in policies:
        curve = [(float(r[1]), float(r[2]), float(r[3])) for r in rows if r[0] == kind]
        if not curve:
            problems.append(f"no summary rows for policy {kind}")
            continue
        means = [m for _, m, _ in curve]
        if curve[0][0] != 0.0 or means[0] != 0.0:
            problems.append(f"{kind}: J(0) = {means[0]!r}, expected 0")
        if any(b < a for a, b in zip(means, means[1:])):
            problems.append(f"{kind}: mean cost curve decreases")
        if any(se < 0.0 for _, _, se in curve):
            problems.append(f"{kind}: negative standard error")
        values[f"J_T.{kind}"] = means[-1]
        values[f"stderr_T.{kind}"] = curve[-1][2]
    problems += _finite(values)
    return problems, values


def check_lower_bound(out: Path) -> tuple:
    problems = _manifest_problems(out, "lower-bound")
    if problems:
        return problems, {}
    values = {r[0]: float(r[1]) for r in _rows(out / "lower_bound.csv")[1:]}
    problems += _finite(values)
    if not values.get("variance_rate", 0.0) > 0.0:
        problems.append("variance_rate must be positive")
    if not values.get("jstar_mean", 0.0) > 0.0:
        problems.append("jstar_mean must be positive")
    if "jnaive_mean" in values:
        if values["jstar_coeff"] > values["jnaive_coeff"] * (1 + _EPS):
            problems.append("jstar_coeff > jnaive_coeff")
        if values["jstar_mean"] > values["jnaive_mean"] * (1 + _EPS):
            problems.append("jstar > jnaive")
        if values["relative_regret"] < 1.0 - _EPS:
            problems.append(f"relative_regret {values['relative_regret']} < 1")
    return problems, values


def check_select_model(out: Path, n_models: int) -> tuple:
    problems = _manifest_problems(out, "select-model")
    if problems:
        return problems, {}
    rows = _rows(out / "criteria.csv")[1:]
    if len(rows) != n_models:
        problems.append(f"{len(rows)} ranked models, expected {n_models}")
    regrets = [float(r[1]) for r in rows]
    if any(not math.isfinite(x) or x < 1.0 - _EPS for x in regrets):
        problems.append("relative_regret must be finite and >= 1")
    if regrets != sorted(regrets):
        problems.append("models are not ranked by relative_regret")
    if any(float(r[2]) > float(r[3]) * (1 + _EPS) for r in rows):
        problems.append("jstar_coeff > jnaive_coeff for some model")
    values = {}
    for i, row in enumerate(rows[:3]):
        values[f"rank{i}.regret"] = float(row[1])
        values[f"rank{i}.name"] = row[0]
    return problems, values


def check_triage(out: Path, n_points: int) -> tuple:
    problems = _manifest_problems(out, "triage")
    if problems:
        return problems, {}
    rows = [[float(x) for x in r] for r in _rows(out / "triage.csv")[1:]]
    if len(rows) != n_points + 1:
        problems.append(f"{len(rows)} triage rows, expected {n_points + 1}")
        return problems, {}
    *grid, best = rows
    if any(not math.isfinite(x) for r in rows for x in r):
        problems.append("non-finite triage cost")
    argmin = min(grid, key=lambda r: r[7])
    if best != argmin:
        problems.append("last row is not the argmin of total cost")
    if any(abs(sum(r[3:7]) - r[7]) > 1e-9 * max(1.0, abs(r[7])) for r in grid):
        problems.append("cost parts do not add up to the total")
    names = ("z_fl", "z_tx", "gamma", "filtering", "hiring", "misclass",
             "queueing", "total")
    return problems, {f"best.{n}": v for n, v in zip(names, best)}


def check_estimate(out: Path) -> tuple:
    problems = _manifest_problems(out, "estimate")
    if problems:
        return problems, {}
    values = {}
    for r in _rows(out / "confusion.csv")[1:]:
        row = [float(x) for x in r[1:]]
        if abs(sum(row) - 1.0) > _EPS or any(not 0.0 <= x <= 1.0 for x in row):
            problems.append(f"confusion row {r[0]} is not a probability vector")
        for j, x in enumerate(row):
            values[f"q{r[0]}{j + 1}"] = x
    rates = _rows(out / "rates.csv")[1:]
    if abs(sum(float(r[1]) for r in rates) - 1.0) > _EPS:
        problems.append("prevalences do not sum to 1")
    for r in rates:
        values[f"p{r[0]}"], values[f"mu{r[0]}"] = float(r[1]), float(r[2])
        if not float(r[2]) > 0.0:
            problems.append(f"mu_hat of class {r[0]} must be positive")
    curves = _rows(out / "curves.csv")[1:]
    for col in (1, 2):
        g = [float(r[col]) for r in curves]
        if any(b > a for a, b in zip(g, g[1:])) or not all(0.0 <= x <= 1.0 for x in g):
            problems.append(f"pass-rate curve {col} is not a nonincreasing rate")
    problems += _finite(values)
    return problems, values


def compare_golden(values: dict, golden: dict) -> list:
    """Differences from recorded values: strings compare exactly, numbers
    to GOLDEN_RTOL."""
    problems = []
    for key, want in golden.items():
        got = values.get(key)
        if got is None:
            problems.append(f"golden {key}: missing")
        elif isinstance(want, str):
            if got != want:
                problems.append(f"golden {key}: {got!r} != {want!r}")
        elif not math.isclose(got, want, rel_tol=GOLDEN_RTOL, abs_tol=1e-300):
            problems.append(f"golden {key}: {got!r} != {want!r}")
    return problems
