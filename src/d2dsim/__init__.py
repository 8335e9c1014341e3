"""Stochastic-geometry simulator and optimizer for D2D access in cellular uplink spectrum."""

from .access import ActiveSet, SchemeSpec
from .analytic import DerivedConstants, SystemParams
from .planner import ConstraintSpec, PlanResult
from .simkit import ExperimentConfig, MetricsReport, Realization
from .spatial import Window

__version__ = "0.1.0"

__all__ = [
    "ActiveSet",
    "ConstraintSpec",
    "DerivedConstants",
    "ExperimentConfig",
    "MetricsReport",
    "PlanResult",
    "Realization",
    "SchemeSpec",
    "SystemParams",
    "Window",
    "__version__",
]
