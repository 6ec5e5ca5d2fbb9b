"""Command-line front end: simulate, lower-bound, select-model, triage, estimate.

Every command reads a config, writes CSV result tables into --out, and
finishes with a manifest.json naming the command, inputs, seed schedule,
config warnings (also echoed on stderr) and every file written.  The manifest
is written last, so its presence marks a completed run.  All randomness
descends from --seed; reruns with identical flags produce byte-identical CSVs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import ConfigError, PqschedError
# each command imports the simulator, pricing, analytics, triage and ingest
# modules it runs, so a process loads only those
from .model import (ConfusionMatrix, _check_finite, _confusion_faults, _square, load_config,
                    load_json, shape_mismatch, write_csv, write_json)
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
    if not np.isfinite([a, b]).all():
        raise click.BadParameter(f"grid ends must be finite, got {text!r}")
    if n < 1 or b < a:
        raise click.BadParameter(f"bad grid spec {text!r}")
    return np.linspace(a, b, n)


class _Run:
    """Collects stage timings and output paths as the command runs; emits the
    manifest last.  The output directory is made for the first file written,
    so a command that fails on its inputs leaves nothing behind."""

    def __init__(self, command: str, out_dir: str, config_path, seed_schedule: dict, grids: dict):
        self.command = command
        self.out = Path(out_dir)
        self.config_path = None if config_path is None else str(config_path)
        self.seed_schedule = seed_schedule
        self.grids = grids
        self.warnings = []
        self.outputs = []
        self.timings = {}   # stage -> seconds
        self.t0 = time.monotonic()

    def load(self):
        """The system config at config_path, read as stage "load"; its
        warnings are echoed on stderr at once."""
        with self.timed("load"):
            config = load_config(self.config_path)
        self.warnings = config.warnings
        for text in self.warnings:
            click.echo(f"warning: {text}", err=True)
        return config

    @contextmanager
    def timed(self, stage: str):
        """Add the wall time of the block to timings[stage], in seconds."""
        t0 = time.perf_counter()
        yield
        self.timings[stage] = round(self.timings.get(stage, 0.0) + time.perf_counter() - t0, 6)

    def path(self, name: str) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out / name

    def write_csv(self, name: str, header: list, rows):
        write_csv(self.path(name), header, rows)

    def finish(self, **facts) -> Path:
        """Write manifest.json; facts are command-specific entries."""
        manifest = facts | {
            "command": self.command,
            "config": self.config_path,
            "grids": self.grids,
            "outputs": sorted(self.outputs),
            "seed_schedule": self.seed_schedule,
            "timings_s": self.timings,
            "version": __version__,
            "warnings": self.warnings,
            "wall_clock_s": round(time.monotonic() - self.t0, 3),
        }
        target = self.path("manifest.json")   # after the outputs were listed
        write_json(target, manifest)
        return target


class _Group(click.Group):
    """Reports a PqschedError or OSError from any command as one Error: line."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (PqschedError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
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
    from . import cost as cost_mod
    from .engine import EVENT_CAP, export_curves_csv, export_jobs_csv, run_path

    if paths < 1:
        raise ConfigError(f"--paths {paths}: simulate needs at least 1 path")
    policies = list(dict.fromkeys(policies))   # a repeated --policy runs once
    run = _Run("simulate", out_dir, config_path, {"base_seed": seed, "n_paths": paths},
               {"policies": policies})
    config = run.load()
    if paths == 1:
        with run.timed("simulate"):
            # the draws do not depend on the policy: each path reads the same stream
            results = [run_path(config, kind, seed, sampling_grid=201) for kind in policies]
        with run.timed("write"):
            for kind, path in zip(policies, results):
                export_jobs_csv(path, run.path(f"jobs_{kind}.csv"))
                export_curves_csv(path, run.path(f"curves_{kind}.csv"))
                click.echo(f"{kind}: {path.arrival_times.size} arrivals, "
                           f"{int(path.done.sum())} completed")
        counts = {kind: [path.event_count] for kind, path in zip(policies, results)}
        facts = {}
    else:
        with run.timed("simulate"):
            summaries = cost_mod.compare_policies(config, policies, paths, seed)
        with run.timed("write"):
            cost_mod.export_summary_csv(summaries, run.path("summary.csv"))
        for kind, s in summaries.items():
            click.echo(f"{kind}: J(T) = {s.terminal_mean:.6g} +/- {s.terminal_stderr:.2g}")
        counts = {kind: s.event_counts.tolist() for kind, s in summaries.items()}
        facts = {"open_jobs": {kind: {"total": int(s.open_jobs.sum()),
                                      "max_per_path": int(s.open_jobs.max()),
                                      "truncated_cost_share": s.open_cost_share}
                               for kind, s in summaries.items()}}
    events = {kind: {"total": sum(c), "max_per_path": max(c),
                     "event_cap_headroom": 1.0 - max(c) / EVENT_CAP}
              for kind, c in counts.items()}
    click.echo(f"manifest: {run.finish(events=events, **facts)}")


@main.command("lower-bound")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--paths", default=2000, show_default=True)
@click.option("--steps", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_lower_bound(config_path, paths, steps, seed, out_dir):
    """Workload-diffusion cost floor for the configured system."""
    from . import httheory as ht

    if paths < 2:
        raise ConfigError(f"--paths {paths}: lower-bound needs at least 2 paths for a "
                          "standard error")
    run = _Run("lower-bound", out_dir, config_path, {"seed": seed, "n_paths": paths},
               {"n_steps": steps})
    config = run.load()
    # a floor that overflows is refused below in one line, not warned about
    with np.errstate(all="ignore"), run.timed("paths"):
        v = ht.workload_variance_rate(config)
        w = ht.bm_workload_paths(v, steps, config.horizon, paths, seed)
    rows = [("variance_rate", v)]
    with np.errstate(all="ignore"), run.timed("cost"):
        star = ht.jstar(config, w)
        if config.all_quadratic():
            coeffs = ht.quadratic_coefficients(config)
            naive = ht.jnaive(config, w)
            rows += [("jstar_coeff", coeffs.jstar_coeff), ("jnaive_coeff", coeffs.jnaive_coeff),
                     ("jstar_mean", star.mean), ("jstar_stderr", star.stderr),
                     ("jnaive_mean", naive.mean), ("jnaive_stderr", naive.stderr),
                     ("relative_regret", ht.relative_regret(config))]
        else:
            rows += [("jstar_mean", star.mean), ("jstar_stderr", star.stderr)]
    _check_finite(dict(rows), "overflows the float range")
    with run.timed("write"):
        run.write_csv("lower_bound.csv", ["quantity", "value"],
                      [(name, _fmt(value)) for name, value in rows])
    for name, value in rows:
        click.echo(f"{name} = {value:.8g}")
    manifest = run.finish(expected_integral_sq=0.5 * v * config.horizon ** 2,
                          integral_sq_mean=float(w.integral_sq().mean()),
                          rbm_block_rows=min(w.n_paths, w.block_rows))
    click.echo(f"manifest: {manifest}")


def _read_candidate(path: str) -> tuple:
    """(name, K x K array) of a candidate file: either a square JSON array or
    {"name": ..., "confusion": [[...], ...]}."""
    doc = load_json(path)
    try:
        q = _square(doc["confusion"] if isinstance(doc, dict) else doc)
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed model file: {type(exc).__name__} {exc}") from exc
    if isinstance(doc, dict) and "name" in doc:
        return str(doc["name"]), q
    return Path(path).stem, q


def _load_candidates(paths, k: int) -> tuple:
    """(names, (n, k, k) stack) of the candidate files: k x k, stochastic rows,
    entries in [0, 1].  Read in order up to the first file that fails to load
    and checked as one stack per class count; the first file at fault raises,
    then the load failure, then the first candidate that is not k x k."""
    models, failure = [], None
    for path in paths:
        try:
            models.append(_read_candidate(path))
        except (PqschedError, OSError) as exc:   # raised after the faults of the files before it
            failure = exc
            break
    stacks, faulty = {}, []
    for n in {len(q) for _, q in models}:
        index = [i for i, (_, q) in enumerate(models) if len(q) == n]
        stacks[n] = np.stack([models[i][1] for i in index])
        out_of_range, bad_rows = _confusion_faults(stacks[n])
        faulty += [index[j] for j in np.flatnonzero(out_of_range | bad_rows.any(axis=-1))]
    if faulty:
        i = min(faulty)
        raise ConfigError(f"{paths[i]}: {'; '.join(ConfusionMatrix(models[i][1]).issues())}")
    if failure is not None:
        raise failure
    for name, q in models:
        if len(q) != k:
            raise ConfigError(shape_mismatch({"config": k, f"candidate {name!r}": q.shape}))
    return [name for name, _ in models], stacks[k]


@main.command("select-model")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_paths", multiple=True, required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="Candidate confusion-matrix JSON; repeatable.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_select_model(config_path, model_paths, out_dir):
    """Rank candidate classifiers by scheduling regret (no simulation)."""
    from . import httheory as ht

    run = _Run("select-model", out_dir, config_path, {},
               {"models": [str(p) for p in model_paths]})
    config = run.load()
    with run.timed("models"):
        names, stack = _load_candidates(model_paths, config.n_classes)
    with run.timed("rank"):
        order, *columns = ht.rank_models(stack, config)
    with run.timed("write"):
        # a column of Python floats through repr is its _fmt
        names, columns = [names[i] for i in order.tolist()], [c[order].tolist() for c in columns]
        run.write_csv("criteria.csv", ["model_name", "relative_regret", "jstar_coeff",
                                       "jnaive_coeff"], zip(names, *(map(repr, c) for c in columns)))
    click.echo("\n".join(f"{n}: relative_regret = {r:.6g}" for n, r in zip(names, columns[0])))
    click.echo(f"manifest: {run.finish()}")


@main.command("triage")
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--zfl-grid", default="0.05:0.48:30", show_default=True,
              help="Filtering-level grid a:b:n.")
@click.option("--ztx", default=0.5, show_default=True,
              help="Reviewer toxicity threshold.")
@click.option("--paths", default=2000, show_default=True,
              help="RBM paths, drawn once and shared by every grid point.")
@click.option("--steps", default=400, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_triage(config_path, zfl_grid, ztx, paths, steps, seed, out_dir):
    """Line-search the filtering level; report the cost breakdown per point.

    The final CSV row repeats the argmin decision.  Points with z_fl above
    --ztx, and filtering levels staffed below their passing share, are
    skipped and counted in the manifest.
    """
    from . import triage as triage_mod

    run = _Run("triage", out_dir, config_path, {"seed": seed, "n_paths": paths},
               {"zfl_grid": zfl_grid, "ztx": ztx, "n_steps": steps})
    with run.timed("load"):
        config = triage_mod.load_triage_config(config_path)
    grid = _parse_grid(zfl_grid)
    mc = triage_mod.McParams(n_paths=paths, n_steps=steps, seed=seed)
    with run.timed("grid"):
        d, skipped = triage_mod.evaluate_grid(config, ztx, grid, mc)
    best = int(np.argmin(d.total))   # the first of the least totals
    with run.timed("write"):
        columns = [c.tolist() for c in (d.z_fl, d.z_tx, d.gamma, d.filtering, d.hiring,
                                        d.misclassification, d.queueing, d.total)]
        run.write_csv("triage.csv", ["z_fl", "z_tx", "gamma", "filtering", "hiring",
                                     "misclass", "queueing", "total"],
                      zip(*(map(repr, c + [c[best]]) for c in columns)))
    z_fl, z_tx, gamma, *_, total = (c[best] for c in columns)
    click.echo(f"argmin: z_fl = {z_fl:.4g}, z_tx = {z_tx:.4g}, "
               f"total = {total:.6g} (Gamma = {gamma:.4g})")
    manifest = run.finish(grid_points=d.total.size, argmin={"z_fl": z_fl, "z_tx": z_tx},
                          skipped=skipped)
    click.echo(f"manifest: {manifest}")


@main.command("estimate")
@click.option("--csv", "csv_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", type=float, default=None,
              help="Score threshold replacing a predicted_class column.")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
def cmd_estimate(csv_path, threshold, out_dir):
    """Estimate confusion matrix, prevalences, service rates, pass curves."""
    from . import ingest as ingest_mod
    from . import triage as triage_mod

    if threshold is not None and not np.isfinite(threshold):
        raise click.BadParameter(f"threshold must be finite, got {threshold!r}")
    run = _Run("estimate", out_dir, csv_path, {}, {"threshold": threshold})
    with run.timed("read"):
        table = ingest_mod.read_validation_csv(csv_path)
    blank = {c: table.blank_line(c) for c in ("predicted_class", "score", "service_time")}
    skipped = {}   # output left out -> why
    # every estimate is made before the first file is written, so a refused one leaves none
    confusion = threshold is not None or blank["predicted_class"] is None
    if confusion:
        with run.timed("confusion"):
            q_hat, p_hat = ingest_mod.estimate_confusion(table, threshold=threshold)
    else:
        skipped["confusion.csv"] = ("no --threshold and predicted_class blank on line "
                                    f"{blank['predicted_class']}")
    with run.timed("rates"):
        ingest_mod._check_class_count(table, int(table.true_class.max()) + 1)
        columns = [np.bincount(table.true_class) / len(table)]   # one entry per true class
        n_classes = columns[0].size
        if blank["service_time"] is None:
            columns += ingest_mod.estimate_rates(table)
        else:
            skipped["rates.csv mu_hat, alpha_v_hat"] = (
                f"service_time blank on line {blank['service_time']}")

    if confusion:
        with run.timed("confusion"):
            K = q_hat.n_classes
            run.write_csv("confusion.csv", ["true_class"] + [f"q_{l+1}" for l in range(K)],
                          [[k + 1] + [_fmt(x) for x in q_hat.row(k)] for k in range(K)])
        click.echo(f"confusion: {K} classes from {len(table)} records")
    with run.timed("rates"):
        run.write_csv("rates.csv",
                      ["class", "prevalence", "mu_hat", "alpha_v_hat"][:len(columns) + 1],
                      [[k + 1] + [_fmt(column[k]) for column in columns]
                       for k in range(n_classes)])

    if blank["score"] is None and n_classes == 2:
        with run.timed("curves"):
            curves = triage_mod.PassingCurves.from_samples(*ingest_mod.scores_by_class(table))
            run.write_csv("curves.csv", ["z", "g_toxic", "g_nontoxic"],
                          [[_fmt(x) for x in point] for point in zip(curves.grid, *curves.values)])
    else:
        skipped["curves.csv"] = (f"pass-rate curves need 2 classes, found {n_classes}"
                                 if blank["score"] is None
                                 else f"score blank on line {blank['score']}")
    for output, reason in skipped.items():
        click.echo(f"{output}: skipped ({reason})")
    skipped = [{"output": output, "reason": reason} for output, reason in skipped.items()]
    manifest = run.finish(rows=len(table), classes=n_classes, skipped=skipped,
                          reader=table.reader)
    click.echo(f"manifest: {manifest}")


if __name__ == "__main__":
    main()
