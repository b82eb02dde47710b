"""Structured tracing and metrics for Vista runs.

Zero-dependency span tracer threaded through every execution layer:
the dataflow engine, the physical joins, the storage manager, the plan
executor, the optimizer, and the degrade-and-retry supervisor. See
:mod:`repro.trace.tracer` for the data model and
:mod:`repro.report.trace_ascii` for rendering.
"""

from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    find_spans,
    spans_wall_seconds,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "find_spans",
    "spans_wall_seconds",
]
