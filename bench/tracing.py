"""Span tracing of pqsched from the outside, for the benchmark's traced run.

Each traced function is replaced, at the module attribute its callers look
up, by a wrapper that times the call and keeps a stack of open spans, so a
span's self time is its duration minus the time of the spans it caused.
Nothing inside the package changes: a call a module makes to a function it
defines itself (a bare local name) is only seen as part of its caller.

Spans are kept in memory and written out when the run ends.  Functions
called once per event or grid point (`decide`, `kkt_solve`, triage's
`total_cost`) are only counted and timed, not stored span by span.
The wrappers can be installed and restored any number of times; the
totals accumulate across installs.  `layer_metrics` reports every count,
byte total and self time per traced round, so that a faster program, which
fits more rounds into the same seconds, does not read as doing more work.
Self times are plain wall time, not corrected for host contention as the
end-to-end times are (see workloads.Contention).
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

_clock = time.perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: array = field(default_factory=lambda: array("d"))


class Tracer:
    """Collects spans and per-name totals; see `install` for the wrap table."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self.spans: list[tuple] = []   # (id, parent_id, name, start, end)
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []   # [span_id, child_time]
        self._next_id = 0
        self._patches: list[tuple] = []
        self.default_event_cap: Optional[int] = None
        # wrap targets the package no longer has, and observers that could
        # not read a result: instrumentation faults, never program faults
        self.missing: list[str] = []
        self.observer_errors: dict[str, int] = {}

    def count(self, key: str, value: float = 1.0):
        self.counters[key] = self.counters.get(key, 0.0) + value

    def stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None,
             keep_spans: bool = True) -> Callable:
        stats = self.stat(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            self._next_id += 1
            span_id = self._next_id
            frame = [span_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - frame[1]
                if keep_spans:
                    stats.durations.append(dur)
                    spans.append((span_id, parent, name, t0, t1))
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.observer_errors[name] = self.observer_errors.get(name, 0) + 1
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, observe=None,
              keep_spans: bool = True):
        """Replace owner.attr (a module function, a classmethod or a click
        command's callback) by its traced version."""
        space = vars(owner)
        if attr not in space:
            target = f"{getattr(owner, '__name__', owner)}.{attr}"
            if target not in self.missing:
                self.missing.append(target)
            return
        original = space[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, observe, keep_spans))
        else:
            replacement = self.wrap(name, original, observe, keep_spans)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put every original back, newest first, and check that it is back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")


# ---------------------------------------------------------------------------
# observers: counts read off arguments and results, where the work happens


def _observe_run_path(tracer: Tracer, args, kwargs, result):
    kind = result.policy_kind
    tracer.count("engine.paths")
    tracer.count(f"engine.paths.{kind}")
    tracer.count("engine.events", result.event_count)
    tracer.count(f"engine.events.{kind}", result.event_count)
    tracer.count(f"engine.run_path_s.{kind}",
                 tracer.stats["engine.run_path"].durations[-1])
    tracer.count("engine.jobs", len(result.jobs))
    tracer.count("engine.open_jobs", len(result.open_jobs))
    cap = kwargs.get("event_cap", tracer.default_event_cap)
    if cap:
        headroom = 1.0 - result.event_count / cap
        tracer.counters["engine.event_cap_headroom"] = min(
            tracer.counters.get("engine.event_cap_headroom", 1.0), headroom)


def _observe_path_cost(tracer: Tracer, args, kwargs, result):
    tracer.count("cost.jobs", len(args[0].jobs))


def _observe_rbm(prefix: str):
    def observe(tracer: Tracer, args, kwargs, result):
        n_paths, n_points = result.values.shape
        cells = n_paths * (n_points - 1)
        tracer.count(f"{prefix}.cells", cells)
        # float64 arrays bm_workload_paths allocates: the uniforms, their
        # clipped copy, the normals and the increments (n x steps), then the
        # path, its running minimum, min(0, .) and the reflection (n x steps+1)
        tracer.count(f"{prefix}.bytes", 8 * (4 * cells + 4 * n_paths * n_points))
    return observe


def _observe_jstar(tracer: Tracer, args, kwargs, result):
    if result.method == "general":
        w_paths = args[2] if len(args) > 2 else kwargs["w_paths"]
        n_paths, n_points = w_paths.values.shape
        tracer.count("httheory.jstar.grid_points", n_paths * (n_points - 1))


def _observe_read_csv(tracer: Tracer, args, kwargs, result):
    tracer.count("ingest.rows", len(result))


def install(tracer: Tracer):
    """Wrap the public functions of every pqsched module at the attribute
    their callers look up.  Span names are module.function of the module
    that defines the function, except `triage.bm_workload_paths`, which
    keeps the triage designer's RBM draws apart from lower-bound's."""
    cli = importlib.import_module("pqsched.cli")
    cost = importlib.import_module("pqsched.cost")
    engine = importlib.import_module("pqsched.engine")
    httheory = importlib.import_module("pqsched.httheory")
    ingest = importlib.import_module("pqsched.ingest")
    policies = importlib.import_module("pqsched.policies")
    triage = importlib.import_module("pqsched.triage")
    cap = inspect.signature(engine.run_path).parameters.get("event_cap")
    tracer.default_event_cap = None if cap is None else cap.default

    for name, command in cli.main.commands.items():
        tracer.patch(command, "callback", f"cli.{name}")
    tracer.patch(cli, "load_config", "model.load_config")
    tracer.patch(triage, "load_triage_config", "triage.load_triage_config")

    # simulation: cost -> engine -> policies -> model
    tracer.patch(cost, "compare_policies", "cost.compare_policies")
    tracer.patch(cost, "replicate", "cost.replicate")
    tracer.patch(cost, "run_path", "engine.run_path", _observe_run_path)
    tracer.patch(cost, "path_cost", "cost.path_cost", _observe_path_cost)
    tracer.patch(engine, "decide", "policies.decide", keep_spans=False)
    tracer.patch(policies.PolicyRef, "for_config", "policies.PolicyRef.for_config")
    # only the policy set-up's lookup: calls_per_path counts per-path work
    tracer.patch(policies, "derive_predicted_params", "model.derive_predicted_params")

    # heavy-traffic analytics
    for attr in ("workload_variance_rate", "jnaive", "relative_regret",
                 "rank_models", "quadratic_coefficients"):
        tracer.patch(httheory, attr, f"httheory.{attr}")
    tracer.patch(httheory, "bm_workload_paths", "httheory.bm_workload_paths",
                 _observe_rbm("httheory.rbm"))
    tracer.patch(httheory, "jstar", "httheory.jstar", _observe_jstar)
    tracer.patch(httheory, "kkt_solve", "httheory.kkt_solve", keep_spans=False)

    # triage designer
    tracer.patch(triage, "evaluate_grid", "triage.evaluate_grid")
    tracer.patch(triage, "total_cost", "triage.total_cost", keep_spans=False)
    tracer.patch(triage, "bm_workload_paths", "triage.bm_workload_paths",
                 _observe_rbm("triage.rbm"))
    tracer.patch(triage, "estimate_curves", "triage.estimate_curves")

    # ingest
    tracer.patch(ingest, "read_validation_csv", "ingest.read_validation_csv",
                 _observe_read_csv)
    for attr in ("estimate_confusion", "estimate_rates", "scores_by_class"):
        tracer.patch(ingest, attr, f"ingest.{attr}")


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """The per-layer table: name -> (value, unit).  Counts, bytes and self
    times are per traced round; ratios are over all traced rounds."""
    s = tracer.stat
    c = tracer.counters.get
    per_round = 1.0 / max(rounds, 1)
    paths = c("engine.paths", 0.0)
    run_path = s("engine.run_path")
    out = {
        "engine.run_path.calls": (run_path.calls * per_round, "count"),
        "engine.run_path.self_s": (run_path.self_s * per_round, "s"),
        "engine.events": (c("engine.events", 0.0) * per_round, "count"),
    }
    for kind in ("fcfs", "pcmu", "oracle", "naive"):
        out[f"engine.us_per_event.{kind}"] = (
            1e6 * _ratio(c(f"engine.run_path_s.{kind}", 0.0),
                         c(f"engine.events.{kind}", 0.0)), "us")
    durations = list(run_path.durations)
    out.update({
        "engine.path_ms_p50": (1e3 * _pct(durations, 0.50), "ms"),
        "engine.path_ms_p99": (1e3 * _pct(durations, 0.99), "ms"),
        "engine.open_job_frac": (_ratio(c("engine.open_jobs", 0.0), c("engine.jobs", 0.0)), "frac"),
        "engine.event_cap_headroom": (c("engine.event_cap_headroom", 1.0), "frac"),
        "policies.PolicyRef.for_config.calls_per_path": (
            _ratio(s("policies.PolicyRef.for_config").calls, paths), "count"),
        "policies.PolicyRef.for_config.self_s": (
            s("policies.PolicyRef.for_config").self_s * per_round, "s"),
        "policies.decide.calls": (s("policies.decide").calls * per_round, "count"),
        "policies.decide.self_s": (s("policies.decide").self_s * per_round, "s"),
        "model.derive_predicted_params.calls_per_path": (
            _ratio(s("model.derive_predicted_params").calls, paths), "count"),
        "cost.path_cost.self_s": (s("cost.path_cost").self_s * per_round, "s"),
        "cost.us_per_job": (1e6 * _ratio(s("cost.path_cost").total_s, c("cost.jobs", 0.0)), "us"),
        "cost.replicate.self_s": (s("cost.replicate").self_s * per_round, "s"),
        "httheory.bm_workload_paths.self_s": (
            s("httheory.bm_workload_paths").self_s * per_round, "s"),
        "httheory.rbm_ns_per_cell": (
            1e9 * _ratio(s("httheory.bm_workload_paths").total_s, c("httheory.rbm.cells", 0.0)), "ns"),
        "httheory.rbm_bytes_computed": (c("httheory.rbm.bytes", 0.0) * per_round, "B"),
        "httheory.kkt_solve.calls": (s("httheory.kkt_solve").calls * per_round, "count"),
        "httheory.kkt_us_per_solve": (
            1e6 * _ratio(s("httheory.kkt_solve").total_s, s("httheory.kkt_solve").calls), "us"),
        "httheory.jstar.cache_hit_ratio": (
            1.0 - _ratio(s("httheory.kkt_solve").calls, c("httheory.jstar.grid_points", 0.0))
            if c("httheory.jstar.grid_points") else 0.0, "frac"),
        "httheory.jstar.self_s": (s("httheory.jstar").self_s * per_round, "s"),
        "httheory.rank_models.self_s": (s("httheory.rank_models").self_s * per_round, "s"),
        "httheory.quadratic_coefficients.calls": (
            s("httheory.quadratic_coefficients").calls * per_round, "count"),
        "triage.total_cost.calls": (s("triage.total_cost").calls * per_round, "count"),
        "triage.us_per_point": (
            1e6 * _ratio(s("triage.total_cost").total_s, s("triage.total_cost").calls), "us"),
        "triage.bm_workload_paths.calls": (
            s("triage.bm_workload_paths").calls * per_round, "count"),
        "ingest.read_validation_csv.self_s": (
            s("ingest.read_validation_csv").self_s * per_round, "s"),
        "ingest.rows_per_s": (
            _ratio(c("ingest.rows", 0.0), s("ingest.read_validation_csv").total_s), "1/s"),
        "ingest.estimate_confusion.self_s": (
            s("ingest.estimate_confusion").self_s * per_round, "s"),
        "ingest.estimate_rates.self_s": (s("ingest.estimate_rates").self_s * per_round, "s"),
        "ingest.scores_by_class.self_s": (s("ingest.scores_by_class").self_s * per_round, "s"),
        "model.load_config.self_s": (s("model.load_config").self_s * per_round, "s"),
    })
    for command in ("simulate", "lower-bound", "select-model", "triage", "estimate"):
        out[f"cli.{command}.self_s"] = (s(f"cli.{command}").self_s * per_round, "s")
    return out
