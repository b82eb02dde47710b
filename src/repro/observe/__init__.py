"""Live observability for Vista runs.

Where :mod:`repro.trace` and :mod:`repro.metrics` answer questions
*after* a run returns, this package makes the same signals available
*while the run executes* — and keeps them when it never returns:

- :mod:`repro.observe.ledger` — the streaming run ledger: an
  append-only, schema-versioned (``obs/v1``) JSONL event stream that
  tracer spans, metric samples, recovery events, optimizer decisions,
  and backend wave/fork lifecycle emit into as they happen. A SIGKILLed
  run leaves a readable ledger up to the kill point.
- :mod:`repro.observe.history` — the one offline reader: a ledger
  replays into one ``runsum/v1`` record (:func:`summarize_ledger`),
  which ``repro report --slo``, ``repro history`` and ``repro top``
  all read; the :class:`HistoryStore` keeps records across runs for
  span-aligned diffs (:mod:`repro.observe.diff`) and drift timelines.
- :mod:`repro.observe.perfetto` — Chrome trace-event / Perfetto
  export of a ledger (driver spans + forked process-backend workers
  on pid/tid tracks) as a standard ``trace.json`` loadable in
  ``ui.perfetto.dev``.
- :mod:`repro.observe.progress` — the live progress monitor behind
  ``repro run --progress`` and ``repro top``: per-stage completion and
  an ETA computed from the cost model's predicted stage seconds
  against observed span progress (online calibration).
- :mod:`repro.observe.slo` — the declarative SLO/gate engine and the
  one judge of recorded runs: rules (metric path, comparator,
  threshold, severity, against) evaluated against a run's record, a
  baseline, or a history window; ``repro report --slo``, ``repro
  history diff`` and ``repro history trend`` exit nonzero on breach.
"""

from repro.observe.diff import diff_runs
from repro.observe.history import (
    HistoryStore,
    RUNSUM_SCHEMA,
    environment_meta,
    run_fingerprint,
    summarize_ledger,
    summarize_path,
)
from repro.observe.ledger import (
    LEDGER_SCHEMA,
    NULL_LEDGER,
    RunLedger,
    read_ledger,
    validate_events,
)
from repro.observe.perfetto import (
    chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe.progress import (
    ProgressRenderer,
    ProgressState,
    StagePlan,
    predict_stage_plan,
    render_progress,
    replay_progress,
)
from repro.observe.slo import (
    SloRule,
    evaluate_slo,
    has_breach,
    load_rules,
    render_slo,
)
from repro.trace.tracer import spans_from_events

__all__ = [
    "HistoryStore",
    "LEDGER_SCHEMA",
    "NULL_LEDGER",
    "ProgressRenderer",
    "ProgressState",
    "RUNSUM_SCHEMA",
    "RunLedger",
    "SloRule",
    "StagePlan",
    "chrome_trace",
    "diff_runs",
    "environment_meta",
    "evaluate_slo",
    "has_breach",
    "load_rules",
    "predict_stage_plan",
    "read_ledger",
    "render_progress",
    "render_slo",
    "replay_progress",
    "run_fingerprint",
    "spans_from_events",
    "summarize_ledger",
    "summarize_path",
    "validate_chrome_trace",
    "validate_events",
    "write_chrome_trace",
]
