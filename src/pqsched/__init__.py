"""Scheduling multiclass queues on predicted classes, with the tools to
measure what the classifier's mistakes cost: a preemptive-resume simulator,
index policies, heavy-traffic cost floors, a confusion-matrix model-selection
criterion, and a triage-system designer."""

__version__ = "0.1.0"

# a public name is declared once, in its module's __all__ (errors: every class);
# every module but errors is imported when one of its names is first looked up
from importlib import import_module as _import_module

from . import errors
from .errors import *

_MODULES = ("model", "policies", "engine", "cost", "httheory", "triage", "ingest")


def __getattr__(name: str):
    """PEP 562 lookup of a name the package does not hold yet: a submodule,
    __all__ (the error classes and every module's __all__), or a public name,
    taken from the first module in _MODULES order that lists it and cached."""
    if name in _MODULES or name == "cli":  # `from pqsched import cli` asks here first
        return _import_module(f".{name}", __name__)  # the import binds it here
    if name == "__all__":
        value = [n for n in vars(errors) if not n.startswith("_")]
        value += [n for m in _MODULES for n in _import_module(f".{m}", __name__).__all__]
    else:
        for m in _MODULES:
            module = _import_module(f".{m}", __name__)
            if name in module.__all__:
                value = getattr(module, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
