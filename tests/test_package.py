"""The package namespace re-exports exactly the names its modules list."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pqsched
from pqsched import errors


def _listing_modules():
    """Every pqsched module that declares __all__."""
    modules = (importlib.import_module(f"pqsched.{info.name}")
               for info in pkgutil.iter_modules(pqsched.__path__))
    return [m for m in modules if hasattr(m, "__all__")]


def test_every_listed_name_exists_and_is_reexported():
    modules = _listing_modules()
    assert {m.__name__ for m in modules} >= {"pqsched.engine", "pqsched.cost", "pqsched.httheory"}
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert getattr(pqsched, name, None) is getattr(module, name), name


def test_package_exports_only_listed_names():
    # a name dropped from its module's __all__ (or deleted) leaves pqsched too
    listed = set().union(*(m.__all__ for m in _listing_modules()))
    listed |= {name for name in vars(errors) if name.endswith("Error")}
    public = {name for name, value in vars(pqsched).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public <= listed, sorted(public - listed)


def test_star_import_and_dir_list_every_listed_name():
    # __all__ and dir() of the lazily filled package: every module's __all__
    # and the error classes, as when each module was star-imported
    listed = set().union(*(m.__all__ for m in _listing_modules()))
    listed |= {name for name in vars(errors) if name.endswith("Error")}
    namespace = {}
    exec("from pqsched import *", namespace)
    assert set(namespace) - {"__builtins__"} == listed
    assert sorted(pqsched.__all__) == sorted(listed)
    assert listed <= set(dir(pqsched))
    assert not hasattr(pqsched, "no_such_name")


def test_import_and_config_load_leave_the_other_modules_unloaded(tmp_path):
    # only a command, or the first lookup of one of their names, loads these
    cfg = tmp_path / "system.json"
    pqsched.model.write_json(cfg, pqsched.config_to_json(pqsched.SystemConfig(
        1.0, [0.3, 0.7], [2.0, 1.0], [pqsched.CostFn(1.0), pqsched.CostFn(10.0)],
        [[0.9, 0.1], [0.2, 0.8]])))
    unloaded = ["pqsched.engine", "pqsched.cost", "pqsched.httheory", "pqsched.ingest",
                "pqsched.triage", "numpy.random", "scipy", "concurrent.futures"]
    code = ("import sys, pqsched, pqsched.cli; from pqsched import cli; "
            "cli.load_config(sys.argv[1]); "
            "print([m for m in sys.argv[2:] if m in sys.modules]); "
            "pqsched.run_path; print('pqsched.engine' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(pqsched.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(cfg), *unloaded],
                          env=env, check=True, capture_output=True, text=True)
    assert proc.stdout.splitlines() == ["[]", "True"]


def test_analytics_take_the_config_alone():
    # a floor prices the config it is given; another classifier is priced
    # through config.with_confusion(q), never through an argument beside it
    want = {"kkt_solve": ["r", "config"], "two_class_xstar": ["r", "config"],
            "jstar": ["config", "w_paths"], "jnaive": ["config", "w_paths"],
            "relative_regret": ["config"], "quadratic_coefficients": ["config"]}
    for name, params in want.items():
        assert list(inspect.signature(getattr(pqsched, name)).parameters) == params, name
    model = importlib.import_module("pqsched.model")
    for name in ("mixture_cost", "MixtureCost"):  # cost_terms prices every label's mixture
        assert name not in model.__all__, name
        assert not hasattr(model, name) and not hasattr(pqsched, name), name


def test_two_simulation_entries():
    # run_path simulates one seed, compare_policies replicates; both build on
    # simulate_block, and path_cost prices a path
    for name in ("run_path", "simulate_block", "compare_policies", "path_cost"):
        assert callable(getattr(pqsched, name)), name
    for name in ("run_paths", "replicate", "terminal_cost"):
        assert name not in pqsched.__all__ and not hasattr(pqsched, name), name
    engine = importlib.import_module("pqsched.engine")
    # a tracer reads the default event cap from this keyword
    cap = inspect.signature(pqsched.run_path).parameters["event_cap"]
    assert cap.kind is inspect.Parameter.KEYWORD_ONLY and cap.default == engine.EVENT_CAP
