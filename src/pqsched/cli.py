"""Command-line front end: simulate, lower-bound, select-model, triage, estimate.

Every command reads a config, writes CSV result tables into --out, and
finishes with a manifest.json naming the command, inputs, seed schedule,
config warnings (also echoed on stderr) and every file written.  The manifest
is written last, so its presence marks a completed run.  All randomness
descends from --seed; reruns with identical flags produce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import json
import time
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ConfigError, PqschedError
from . import cost as cost_mod
from . import httheory as ht
from . import ingest as ingest_mod
from . import triage as triage_mod
from .engine import export_curves_csv, export_jobs_csv, run_path
from .model import ConfusionMatrix, load_config, load_json, validate_config
from .policies import POLICY_KINDS


def _fmt(x) -> str:
    return repr(float(x))


def _parse_grid(text: str) -> np.ndarray:
    """Parse 'a:b:n' into n equally spaced points on [a, b]."""
    parts = text.split(":")
    if len(parts) != 3:
        raise click.BadParameter(f"expected a:b:n, got {text!r}")
    try:
        a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise click.BadParameter(f"expected numeric a:b:n, got {text!r}")
    if n < 1 or b < a:
        raise click.BadParameter(f"bad grid spec {text!r}")
    return np.linspace(a, b, n)


class _Run:
    """Collects output paths as files are written; emits the manifest last.
    A system config's validation warnings are echoed on stderr at once."""

    def __init__(self, command: str, out_dir: str, config_path, seed_schedule: dict,
                 grids: dict, config=None):
        self.command = command
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path = None if config_path is None else str(config_path)
        self.seed_schedule = seed_schedule
        self.grids = grids
        self.warnings = [] if config is None else validate_config(config).warnings
        for text in self.warnings:
            click.echo(f"warning: {text}", err=True)
        self.outputs = []
        self.t0 = time.monotonic()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.out / name

    def finish(self) -> Path:
        manifest = {
            "command": self.command,
            "config": self.config_path,
            "grids": self.grids,
            "outputs": sorted(self.outputs),
            "seed_schedule": self.seed_schedule,
            "version": __version__,
            "warnings": self.warnings,
            "wall_clock_s": round(time.monotonic() - self.t0, 3),
        }
        target = self.out / "manifest.json"
        with open(target, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return target


def _csv_writer(fh):
    return csv.writer(fh, lineterminator="\n")


@click.group()
@click.version_option(version=__version__, prog_name="pqsched")
def main():
    """Predicted-class queue scheduling: simulation, limits, triage design."""


@main.command("simulate")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--policy", "policies", multiple=True,
              type=click.Choice(POLICY_KINDS), default=("pcmu", "oracle"),
              show_default=True, help="May be given multiple times.")
@click.option("--paths", default=100, show_default=True,
              help="Replications; 1 exports the raw path instead of a summary.")
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_simulate(config_path, policies, paths, seed, out_dir):
    """Replicate policies on paired seeds and summarize cumulative cost."""
    try:
        config = load_config(config_path)
        run = _Run("simulate", out_dir, config_path,
                   {"base_seed": seed, "n_paths": paths},
                   {"policies": list(policies)}, config)
        if paths == 1:
            for kind in policies:
                path = run_path(config, kind, seed, sampling_grid=201)
                export_jobs_csv(path, run.path(f"jobs_{kind}.csv"))
                export_curves_csv(path, run.path(f"curves_{kind}.csv"))
                click.echo(f"{kind}: {len(path.jobs)} arrivals, "
                           f"{len(path.completed)} completed")
        else:
            summaries = cost_mod.compare_policies(config, list(policies),
                                                  paths, seed)
            cost_mod.export_summary_csv(summaries, run.path("summary.csv"))
            for kind, s in summaries.items():
                click.echo(f"{kind}: J(T) = {s.terminal_mean:.6g} "
                           f"+/- {s.terminal_stderr:.2g}")
        manifest = run.finish()
        click.echo(f"manifest: {manifest}")
    except (PqschedError, OSError) as exc:
        raise click.ClickException(str(exc))


@main.command("lower-bound")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--paths", default=2000, show_default=True)
@click.option("--steps", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_lower_bound(config_path, paths, steps, seed, out_dir):
    """Workload-diffusion cost floor for the configured system."""
    try:
        config = load_config(config_path)
        run = _Run("lower-bound", out_dir, config_path,
                   {"seed": seed, "n_paths": paths},
                   {"n_steps": steps}, config)
        v = ht.workload_variance_rate(config)
        w = ht.bm_workload_paths(v, steps, config.horizon, paths, seed)
        rows = [("variance_rate", v)]
        if config.all_quadratic():
            coeffs = ht.quadratic_coefficients(config)
            star = ht.jstar(None, config, w)
            naive = ht.jnaive(None, config, w)
            rows += [
                ("jstar_coeff", coeffs.jstar_coeff),
                ("jnaive_coeff", coeffs.jnaive_coeff),
                ("jstar_mean", star.mean),
                ("jstar_stderr", star.stderr),
                ("jnaive_mean", naive.mean),
                ("jnaive_stderr", naive.stderr),
                ("relative_regret",
                 ht.relative_regret(config.confusion, config)),
            ]
        else:
            star = ht.jstar(None, config, w, method="general")
            rows += [("jstar_mean", star.mean), ("jstar_stderr", star.stderr)]
        with open(run.path("lower_bound.csv"), "w", encoding="utf-8") as fh:
            writer = _csv_writer(fh)
            writer.writerow(["quantity", "value"])
            for name, value in rows:
                writer.writerow([name, _fmt(value)])
        for name, value in rows:
            click.echo(f"{name} = {value:.8g}")
        click.echo(f"manifest: {run.finish()}")
    except (PqschedError, OSError) as exc:
        raise click.ClickException(str(exc))


def _load_candidate(path: str):
    """Candidate file: either a bare K x K JSON array or
    {"name": ..., "confusion": [[...], ...]}."""
    doc = load_json(path)
    try:
        if isinstance(doc, dict):
            return str(doc.get("name", Path(path).stem)), ConfusionMatrix(doc["confusion"])
        return Path(path).stem, ConfusionMatrix(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model file: {type(exc).__name__} {exc}") from exc


@main.command("select-model")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Candidate confusion-matrix JSON; repeatable.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_select_model(config_path, model_paths, out_dir):
    """Rank candidate classifiers by scheduling regret (no simulation)."""
    try:
        config = load_config(config_path)
        models = [_load_candidate(p) for p in model_paths]
        run = _Run("select-model", out_dir, config_path, {},
                   {"models": [str(p) for p in model_paths]}, config)
        ranked = ht.rank_models(models, config)
        with open(run.path("criteria.csv"), "w", encoding="utf-8") as fh:
            writer = _csv_writer(fh)
            writer.writerow(["model_name", "relative_regret", "jstar_coeff",
                             "jnaive_coeff"])
            for m in ranked:
                writer.writerow([m.name, _fmt(m.relative_regret),
                                 _fmt(m.jstar_coeff), _fmt(m.jnaive_coeff)])
        for m in ranked:
            click.echo(f"{m.name}: relative_regret = {m.relative_regret:.6g}")
        click.echo(f"manifest: {run.finish()}")
    except (PqschedError, OSError) as exc:
        raise click.ClickException(str(exc))


@main.command("triage")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--zfl-grid", default="0.05:0.48:30", show_default=True,
              help="Filtering-level grid a:b:n.")
@click.option("--ztx", default=0.5, show_default=True,
              help="Reviewer toxicity threshold.")
@click.option("--paths", default=2000, show_default=True,
              help="RBM paths per grid point (shared seeds).")
@click.option("--steps", default=400, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_triage(config_path, zfl_grid, ztx, paths, steps, seed, out_dir):
    """Line-search the filtering level; report the cost breakdown per point.

    The final CSV row repeats the argmin decision.
    """
    try:
        config = triage_mod.load_triage_config(config_path)
        grid = _parse_grid(zfl_grid)
        run = _Run("triage", out_dir, config_path,
                   {"seed": seed, "n_paths": paths},
                   {"zfl_grid": zfl_grid, "ztx": ztx, "n_steps": steps})
        mc = triage_mod.McParams(n_paths=paths, n_steps=steps, seed=seed)
        decisions = triage_mod.evaluate_grid(config, ztx, grid, mc)
        best = min(decisions, key=lambda d: d.total)
        with open(run.path("triage.csv"), "w", encoding="utf-8") as fh:
            writer = _csv_writer(fh)
            writer.writerow(["z_fl", "z_tx", "gamma", "filtering", "hiring",
                             "misclass", "queueing", "total"])
            for d in decisions + [best]:
                writer.writerow([_fmt(d.z_fl), _fmt(d.z_tx), _fmt(d.gamma),
                                 _fmt(d.filtering), _fmt(d.hiring),
                                 _fmt(d.misclassification), _fmt(d.queueing),
                                 _fmt(d.total)])
        click.echo(f"argmin: z_fl = {best.z_fl:.4g}, z_tx = {best.z_tx:.4g}, "
                   f"total = {best.total:.6g} "
                   f"(Gamma = {best.gamma:.4g})")
        click.echo(f"manifest: {run.finish()}")
    except (PqschedError, OSError) as exc:
        raise click.ClickException(str(exc))


@main.command("estimate")
@click.option("--csv", "csv_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", type=float, default=None,
              help="Score threshold replacing a predicted_class column.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_estimate(csv_path, threshold, out_dir):
    """Estimate confusion matrix, prevalences, service rates, pass curves."""
    try:
        records = ingest_mod.read_validation_csv(csv_path)
        run = _Run("estimate", out_dir, csv_path, {},
                   {"threshold": threshold})
        have_pred = all(r.predicted_class is not None for r in records)
        have_scores = all(r.score is not None for r in records)
        have_service = all(r.service_time is not None for r in records)

        q_hat, p_hat = None, None
        if threshold is not None or have_pred:
            q_hat, p_hat = ingest_mod.estimate_confusion(records, threshold=threshold)
            K = q_hat.n_classes
            with open(run.path("confusion.csv"), "w", encoding="utf-8") as fh:
                writer = _csv_writer(fh)
                writer.writerow(["true_class"] + [f"q_{l+1}" for l in range(K)])
                for k in range(K):
                    writer.writerow([k + 1] + [_fmt(x) for x in q_hat.row(k)])
            click.echo(f"confusion: {K} classes from {len(records)} records")
        else:
            click.echo("confusion: skipped (no predicted_class, no --threshold)")

        n_classes = max(r.true_class for r in records) + 1
        counts = np.bincount([r.true_class for r in records], minlength=n_classes)
        with open(run.path("rates.csv"), "w", encoding="utf-8") as fh:
            writer = _csv_writer(fh)
            if have_service:
                mu_hat, alpha_v = ingest_mod.estimate_rates(records)
                writer.writerow(["class", "prevalence", "mu_hat", "alpha_v_hat"])
                for k in range(n_classes):
                    writer.writerow([k + 1, _fmt(counts[k] / len(records)),
                                     _fmt(mu_hat[k]), _fmt(alpha_v[k])])
            else:
                writer.writerow(["class", "prevalence"])
                for k in range(n_classes):
                    writer.writerow([k + 1, _fmt(counts[k] / len(records))])

        if have_scores and n_classes == 2:
            curves = triage_mod.estimate_curves(
                ingest_mod.scores_by_class(records))
            with open(run.path("curves.csv"), "w", encoding="utf-8") as fh:
                writer = _csv_writer(fh)
                writer.writerow(["z", "g_toxic", "g_nontoxic"])
                for i, z in enumerate(curves.grid):
                    writer.writerow([_fmt(z), _fmt(curves.values[0, i]),
                                     _fmt(curves.values[1, i])])
        click.echo(f"manifest: {run.finish()}")
    except (PqschedError, OSError) as exc:
        raise click.ClickException(str(exc))


if __name__ == "__main__":
    main()
