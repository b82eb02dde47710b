"""Plan EXPLAIN, what-if analysis, and cost-model calibration.

The observability face of the optimizer and cost model: ``explain``
exposes Algorithm 1's full candidate ledger, ``what_if`` prices pinned
configurations, ``predict_workload_peaks`` predicts an executable
run's per-region memory waterline peaks, and ``calibration`` measures
the process backend's speedup curve against the cost model's
prediction (``benchmarks/bench_parallel.py``).
"""

from repro.explain.calibration import (
    MEMORY_DRIFT_GATE,
    RUNTIME_DRIFT_GATE,
    drift_violations,
)
from repro.explain.ledger import ExplainResult, explain
from repro.explain.peaks import peak_ratios, predict_workload_peaks
from repro.explain.whatif import (
    PIN_KEYS,
    VERDICT_FEASIBLE,
    WhatIfReport,
    what_if,
)

__all__ = [
    "ExplainResult",
    "MEMORY_DRIFT_GATE",
    "PIN_KEYS",
    "RUNTIME_DRIFT_GATE",
    "VERDICT_FEASIBLE",
    "WhatIfReport",
    "drift_violations",
    "explain",
    "peak_ratios",
    "predict_workload_peaks",
    "what_if",
]
