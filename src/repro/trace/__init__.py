"""Structured tracing for Vista runs.

Zero-dependency span tracer threaded through every execution layer:
the dataflow engine, the physical joins, the storage manager, the plan
executor, the optimizer, and the degrade-and-retry supervisor. It
records ``obs/v1`` span events; :func:`spans_from_events` in
:mod:`repro.trace.tracer` is the one pairing of them into span records,
and :mod:`repro.report.trace_ascii` renders those records.
"""

from repro.trace.tracer import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    spans_from_events,
)

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "spans_from_events",
]
