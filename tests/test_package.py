"""The package namespace re-exports exactly the names its modules list."""

import importlib
import inspect
import pkgutil

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


def test_analytics_take_the_config_alone():
    # a floor prices the config it is given; another classifier is priced
    # through config.with_confusion(q), never through an argument beside it
    want = {"kkt_solve": ["r", "config"], "two_class_xstar": ["r", "config"],
            "jstar": ["config", "w_paths"], "jnaive": ["config", "w_paths"],
            "relative_regret": ["config"], "quadratic_coefficients": ["config"]}
    for name, params in want.items():
        assert list(inspect.signature(getattr(pqsched, name)).parameters) == params, name
    model = importlib.import_module("pqsched.model")
    assert "mixture_cost" not in model.__all__
    assert not hasattr(model, "mixture_cost") and not hasattr(pqsched, "mixture_cost")
