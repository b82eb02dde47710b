"""Vista's core: declarative API, optimizer, plans, and executor."""

from repro.core.api import Vista, default_resources
from repro.core.config import (
    DatasetStats,
    DownstreamSpec,
    Resources,
    VistaConfig,
    Workload,
)
from repro.core.executor import FeatureTransferExecutor, WorkloadResult
from repro.core.optimizer import optimize
from repro.core.resilient import ResilientRunner, degrade_once
from repro.core.plans import (
    ALL_PLANS,
    EAGER,
    EAGER_REORDERED,
    LAZY,
    LAZY_REORDERED,
    STAGED,
    STAGED_BJ,
    LogicalPlan,
    plan_by_name,
    redundant_flops,
)
from repro.core.sizing import estimate_sizes

__all__ = [
    "ALL_PLANS",
    "DatasetStats",
    "DownstreamSpec",
    "EAGER",
    "EAGER_REORDERED",
    "FeatureTransferExecutor",
    "LAZY",
    "LAZY_REORDERED",
    "LogicalPlan",
    "ResilientRunner",
    "Resources",
    "STAGED",
    "STAGED_BJ",
    "Vista",
    "VistaConfig",
    "Workload",
    "WorkloadResult",
    "default_resources",
    "degrade_once",
    "estimate_sizes",
    "optimize",
    "plan_by_name",
    "redundant_flops",
]
