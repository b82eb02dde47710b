"""repro — reproduction of "Vista: Optimized System for Declarative
Feature Transfer from Deep CNNs at Scale" (Nakandala & Kumar, SIGMOD
2020).

Public API highlights:

- :class:`repro.core.Vista` — the declarative entry point: pick a
  roster CNN, a number of feature layers, a dataset, and cluster
  resources; Vista optimizes the configuration and runs its Staged
  plan.
- :mod:`repro.cnn` — numpy CNN inference engine with partial
  inference and the AlexNet/VGG16/ResNet50 roster.
- :mod:`repro.dataflow` — the miniature parallel-dataflow engine with
  the paper's memory model and crash semantics.
- :mod:`repro.costmodel` — the calibrated analytical model used to
  regenerate the paper's runtime figures at paper scale.
"""

from repro.core import (
    Vista,
    ResilientRunner,
    Resources,
    DatasetStats,
    VistaConfig,
    Workload,
    default_resources,
    optimize,
)
from repro.cnn import build_model, get_model_stats
# repro.core must be imported first: repro.explain imports from it.
from repro.explain import ExplainResult, WhatIfReport, explain, what_if
from repro.exceptions import (
    NoFeasiblePlan,
    VistaError,
    WorkloadCrash,
)
from repro.faults import FaultInjector, FaultPlan, RetryPolicy
from repro.metrics import NULL_METRICS, MetricsRegistry
from repro.recovery import CheckpointStore
from repro.trace import Tracer

__version__ = "1.0.0"

__all__ = [
    "CheckpointStore",
    "DatasetStats",
    "ExplainResult",
    "FaultInjector",
    "FaultPlan",
    "MetricsRegistry",
    "NULL_METRICS",
    "NoFeasiblePlan",
    "ResilientRunner",
    "Resources",
    "RetryPolicy",
    "Tracer",
    "Vista",
    "VistaConfig",
    "VistaError",
    "WhatIfReport",
    "Workload",
    "WorkloadCrash",
    "build_model",
    "default_resources",
    "explain",
    "get_model_stats",
    "optimize",
    "what_if",
    "__version__",
]
