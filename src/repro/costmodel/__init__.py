"""Analytical cost model for paper-scale runtime reproduction.

The real CloudLab cluster + GPU testbed is substituted by this
calibrated model (see DESIGN.md's substitution table): crash
prediction reuses the optimizer's memory arithmetic, and runtime
estimation prices the compiled plan's steps with compute, I/O, and
scheduling terms whose constants are pinned to the paper's measured
anchors.
"""

from repro.costmodel.crashes import (
    CRASH_CORE,
    CRASH_DL,
    CRASH_DL_GPU,
    CRASH_STORAGE,
    CRASH_USER,
    ExecutionSetup,
    detect_crash,
    flink_setup,
    ignite_default_setup,
    spark_default_setup,
    vista_setup,
)
from repro.costmodel.params import ClusterSpec, cloudlab_cluster, gpu_workstation
from repro.costmodel.runtime import (
    RuntimeReport,
    estimate_premat_runtime,
    estimate_runtime,
    per_layer_breakdown,
)

__all__ = [
    "CRASH_CORE",
    "CRASH_DL",
    "CRASH_DL_GPU",
    "CRASH_STORAGE",
    "CRASH_USER",
    "ClusterSpec",
    "ExecutionSetup",
    "RuntimeReport",
    "cloudlab_cluster",
    "detect_crash",
    "estimate_premat_runtime",
    "estimate_runtime",
    "flink_setup",
    "gpu_workstation",
    "ignite_default_setup",
    "per_layer_breakdown",
    "spark_default_setup",
    "vista_setup",
]
