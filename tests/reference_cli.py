"""Reference select-model and triage paths: the oracles the columnar CLI is checked against.

This is the per-object path pqsched used to ship.  `select-model` read its
candidate files one at a time, building a `ConfusionMatrix` for each and
running its `issues()` check before it read the next file; `rank_models`
copied the candidates one by one into a stack, checking the shape of each,
and returned one `RankedModel` per candidate, from which the command wrote
one `criteria.csv` row and one stdout line per ranked model.  `evaluate_grid`
turned its one array pass into a list of `TriageDecision`s, one per kept
point, and `triage` formatted each of them, then the first of least total,
into a `triage.csv` row.  The functions are copied unchanged but for their
names and for returning what the command wrote.

Nothing in `src/` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from pqsched.cli import _fmt
from pqsched.errors import ConfigError, EmptyGridError
from pqsched.httheory import _stiffness
from pqsched.model import ConfusionMatrix, SystemConfig, load_json, shape_mismatch
from pqsched.triage import McParams, TriageConfig, TriageDecision, _check_thresholds, _decisions

CRITERIA = ("relative_regret", "jstar_coeff", "jnaive_coeff")
TRIAGE_HEADER = ["z_fl", "z_tx", "gamma", "filtering", "hiring", "misclass", "queueing", "total"]


@dataclass(frozen=True)
class RankedModel:
    name: str
    relative_regret: float
    jstar_coeff: float
    jnaive_coeff: float


def rank_models(models: Sequence[tuple], config: SystemConfig) -> list:
    """Order candidate confusion matrices by scheduling regret (ascending).

    models is a sequence of (name, confusion) pairs, priced under config as
    one stack; a confusion that is not K x K is a ConfigError (ShapeMismatch)
    naming it.  Sorting is stable, so exact ties keep input order.
    """
    k = config.n_classes
    stack = np.empty((len(models), k, k))
    for i, (name, q) in enumerate(models):
        q = np.asarray(getattr(q, "entries", q), dtype=float)
        if q.shape != (k, k):
            raise ConfigError(shape_mismatch({"config": k, f"candidate {name!r}": q.shape}))
        stack[i] = q
    _, _, jstar_coeff, jnaive_coeff, _ = _stiffness(config, stack)
    regret = jstar_coeff / _stiffness(config, np.eye(k))[2]
    return [RankedModel(str(models[i][0]), float(regret[i]), float(jstar_coeff[i]),
                        float(jnaive_coeff[i]))
            for i in np.argsort(regret, kind="stable")]


def load_candidate(path: str):
    """Candidate file: either a square JSON array or
    {"name": ..., "confusion": [[...], ...]}, with stochastic rows of
    entries in [0, 1].  rank_models checks that it has the config's K."""
    doc = load_json(path)
    try:
        q = ConfusionMatrix(doc["confusion"] if isinstance(doc, dict) else doc)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model file: {type(exc).__name__} {exc}") from exc
    issues = q.issues()
    if issues:
        raise ConfigError(f"{path}: {'; '.join(issues)}")
    if isinstance(doc, dict) and "name" in doc:
        return str(doc["name"]), q
    return Path(path).stem, q


def select_model(model_paths, config) -> tuple:
    """(criteria.csv rows, the ranking's stdout lines) of select-model."""
    ranked = rank_models([load_candidate(p) for p in model_paths], config)
    rows = [[m.name] + [_fmt(getattr(m, c)) for c in CRITERIA] for m in ranked]
    lines = [f"{m.name}: relative_regret = {m.relative_regret:.6g}" for m in ranked]
    return rows, lines


def evaluate_grid(config: TriageConfig, z_tx, zfl_grid,
                  mc: McParams = McParams()) -> tuple:
    """(decisions, skipped) of the array pass, decisions one TriageDecision
    of Python floats per kept point, in (z_fl, z_tx) order."""
    axes = (np.sort(np.atleast_1d(np.asarray(g, dtype=float)), kind="stable")
            for g in (zfl_grid, z_tx))
    z_fl, z_tx = (a.ravel() for a in np.meshgrid(*axes, indexing="ij"))
    feasible, kept = ~(z_tx < z_fl), []
    if feasible.any():
        d, understaffed = _decisions(*_check_thresholds((z_fl[feasible], z_tx[feasible])),
                                     config, mc)
        points = zip(*(v.tolist() for v in vars(d).values()))
        kept = [TriageDecision(*p) for p, bad in zip(points, understaffed.tolist()) if not bad]
    if not kept:
        raise EmptyGridError("no feasible (z_fl, z_tx) pair on the grids")
    return kept, {"z_tx_below_z_fl": int(np.count_nonzero(~feasible)),
                  "gamma_below_pass_share": int(np.count_nonzero(understaffed))}


def triage(decisions) -> tuple:
    """(triage.csv rows, the argmin's stdout line, the argmin) of triage."""
    best = min(decisions, key=lambda d: d.total)
    rows = [[_fmt(x) for x in (d.z_fl, d.z_tx, d.gamma, d.filtering, d.hiring,
                               d.misclassification, d.queueing, d.total)]
            for d in decisions + [best]]
    line = (f"argmin: z_fl = {best.z_fl:.4g}, z_tx = {best.z_tx:.4g}, "
            f"total = {best.total:.6g} (Gamma = {best.gamma:.4g})")
    return rows, line, {"z_fl": best.z_fl, "z_tx": best.z_tx}
