"""Scheduling multiclass queues on predicted classes, with the tools to
measure what the classifier's mistakes cost: a preemptive-resume simulator,
index policies, heavy-traffic cost floors, a confusion-matrix model-selection
criterion, and a triage-system designer."""

__version__ = "0.1.0"

# a public name is declared once, in its module's __all__ (errors: every class)
from .errors import *
from .model import *
from .policies import *
from .engine import *
from .cost import *
from .httheory import *
from .triage import *
from .ingest import *
