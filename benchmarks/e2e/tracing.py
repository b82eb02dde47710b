"""Spans around each layer's public boundary, recorded by the benchmark.

The traced pass replaces the public functions listed in
:func:`boundaries` with timing wrappers, runs one iteration, and puts
the originals back. Nothing inside ``src/`` knows it is being traced,
and the program's own ``Tracer``/ledger are not read, so they can be
reshaped without touching this file. Spans recorded inside the process
backend's forked tasks die with the fork; that backend is read through
the inclusive ``dataflow.backend.run_wave`` span instead.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "core.executor"


def boundaries():
    """``(owner, attribute, span name)`` for every wrapped boundary.

    Module-level entries are the names the executor resolves at call
    time, so replacing the module attribute is enough."""
    from repro.cnn.network import CNN
    from repro.core import executor
    from repro.core.api import Vista
    from repro.dataflow.backend import ProcessPoolBackend, SerialBackend
    from repro.dataflow.columnar import ColumnarBlock
    from repro.dataflow.table import DistributedTable
    from repro.features.store import FeatureStore
    from repro.metrics import MetricsRegistry
    from repro.observe.history import HistoryStore
    from repro.observe.ledger import RunLedger
    from repro.recovery import CheckpointStore
    from repro.trace import Tracer

    return [
        (Vista, "optimize", "core.optimizer.optimize"),
        (DistributedTable, "from_rows", "dataflow.table.from_rows"),
        (DistributedTable, "map_blocks", "dataflow.table.map_blocks"),
        (DistributedTable, "cache", "dataflow.table.cache"),
        (DistributedTable, "unpersist", "dataflow.table.unpersist"),
        (DistributedTable, "repartition_by_key", "dataflow.table.shuffle"),
        (SerialBackend, "run_wave", "dataflow.backend.run_wave"),
        (ProcessPoolBackend, "run_wave", "dataflow.backend.run_wave"),
        (ColumnarBlock, "to_buffer", "dataflow.columnar.to_buffer"),
        (ColumnarBlock, "from_buffer", "dataflow.columnar.from_buffer"),
        (executor, "physical_join", "dataflow.joins.join"),
        (CNN, "partial_forward_batch", "cnn.forward"),
        (CNN, "partial_forward", "cnn.forward"),
        (executor, "pool_feature_tensor_batch", "features.pooling.pool"),
        (FeatureStore, "get", "features.store.get"),
        (FeatureStore, "put", "features.store.put"),
        (CheckpointStore, "put_partition", "recovery.store.put_partition"),
        (CheckpointStore, "commit_stage", "recovery.store.commit_stage"),
        (CheckpointStore, "restore_stage", "recovery.store.restore_stage"),
        (RunLedger, "emit", "observe.ledger.emit"),
        (RunLedger, "close", "observe.ledger.close"),
        (Tracer, "export", "trace.export"),
        (MetricsRegistry, "export", "metrics.export"),
        (HistoryStore, "ingest", "observe.history.ingest"),
    ]


def op_class(op):
    """Operator class of a CNN layer, for the ``cnn.op_s.*`` groups."""
    kind = type(op).__name__
    for needle, group in (("Bottleneck", "block"), ("Conv", "conv"),
                          ("LocalResponseNorm", "lrn"), ("Pool", "pool"),
                          ("Dense", "dense")):
        if needle in kind:
            return group
    return "other"


class _OpTimerTee:
    """Stands in for ``CNN.op_timer`` during the traced pass.

    The executor installs its own hook on the CNN instance whenever the
    program's tracer or metrics are on (``staged_ledgered``). A plain
    class attribute would be shadowed by it, so this data descriptor
    keeps the benchmark's hook running and calls the program's after
    it."""

    def __init__(self, hook):
        self.hook = hook

    def __get__(self, cnn, owner=None):
        if cnn is None:
            return self
        program = cnn.__dict__.get("_program_op_timer")
        if program is None:
            return self.hook
        hook = self.hook

        def tee(name, seconds):
            hook(name, seconds)
            program(name, seconds)

        tee.is_bench_tee = True
        return tee

    def __set__(self, cnn, value):
        # The executor restores "the previous timer", which is what
        # __get__ handed it: ours. Storing that would call it twice.
        if value is self.hook or getattr(value, "is_bench_tee", False):
            value = None
        cnn.__dict__["_program_op_timer"] = value


class SpanRecorder:
    """In-memory span list: name, start, end, parent id, iteration id."""

    def __init__(self, op_classes):
        self.spans = []
        self.iteration = None
        self.op_seconds = defaultdict(float)
        self.buffer_bytes = 0
        self._open = []
        self._op_classes = op_classes

    @contextmanager
    def span(self, name):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def _begin(self, name):
        span = {
            "id": len(self.spans), "name": name,
            "parent": self._open[-1] if self._open else None,
            "iteration": self.iteration, "start": perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def _end(self, span):
        span["end"] = perf_counter()
        self._open.pop()

    def wrap(self, fn, name):
        sized = name == "dataflow.columnar.to_buffer"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if sized:
                self.buffer_bytes += len(result)
            return result

        return traced

    def _record_op(self, name, seconds):
        self.op_seconds[self._op_classes.get(name, "other")] += seconds

    @contextmanager
    def installed(self, extra=()):
        """Wrap every boundary (plus ``extra`` triples) and the
        ``cnn.op_timer`` hook; restore all of them on exit."""
        from repro.cnn.network import CNN

        originals = []
        try:
            for owner, attr, name in [*boundaries(), *extra]:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, name))
                else:
                    wrapped = self.wrap(raw, name)
                originals.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            originals.append((CNN, "op_timer", vars(CNN)["op_timer"]))
            CNN.op_timer = _OpTimerTee(self._record_op)
            yield self
        finally:
            for owner, attr, raw in reversed(originals):
                setattr(owner, attr, raw)

    def summary(self):
        """Per span name: summed self time (duration minus the part
        child spans cover), summed inclusive time, and call count."""
        covered = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            duration = span["end"] - span["start"]
            self_s[span["name"]] += duration - covered[span["id"]]
            total_s[span["name"]] += duration
            calls[span["name"]] += 1
        return self_s, total_s, calls

    def export(self):
        """Spans with times relative to the first span's start."""
        epoch = self.spans[0]["start"] if self.spans else 0.0
        return [
            {**span, "start": span["start"] - epoch,
             "end": span["end"] - epoch}
            for span in self.spans
        ]
