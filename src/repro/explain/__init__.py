"""Plan EXPLAIN, what-if analysis, and memory-peak prediction.

The observability face of the optimizer and cost model: ``explain``
exposes Algorithm 1's full candidate ledger, ``what_if`` prices pinned
configurations, and ``predict_workload_peaks`` reads a run's
per-region memory peaks off the cost model's plan walk.
"""

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
    "PIN_KEYS",
    "VERDICT_FEASIBLE",
    "WhatIfReport",
    "explain",
    "peak_ratios",
    "predict_workload_peaks",
    "what_if",
]
