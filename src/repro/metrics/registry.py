"""Time-series metrics for Vista runs.

Where the tracer (:mod:`repro.trace`) answers "where did the time go"
with span *durations*, this registry answers "what was the state over
time": per-worker memory occupancy, cache residency, task occupancy —
the Figure 4A quantities that decide whether a run crashes, spills, or
sails. A :class:`MetricsRegistry` holds three instrument kinds:

- :class:`Counter` — monotonically increasing totals (tasks run, bytes
  spilled, retries). Each increment appends a ``(sim_time, tick,
  running_total)`` sample, so counters export as cumulative series.
- :class:`Gauge` — a level that moves both ways (region occupancy,
  wave task occupancy). Each ``set`` appends a sample; ``peak`` and
  ``low`` watermarks are tracked exactly even if old samples are
  compacted away.
- :class:`Histogram` — value distributions (join build-side sizes, LRU
  residency ages) as bucket counts plus count/sum/min/max.

Two timestamps per sample, deliberately: ``sim_time`` comes from the
shared :class:`~repro.faults.clock.SimulatedClock` (deterministic, but
static in fault-free runs), and ``tick`` is a registry-global sequence
number that orders *every* sample across all instruments. Waterline
renderings use ticks as their logical time axis, so timelines are
deterministic and meaningful even when the simulated clock never
advances.

The module-level :data:`NULL_METRICS` mirrors ``NULL_TRACER``: every
instrument lookup returns one shared no-op instrument, so
un-instrumented runs pay only an attribute lookup per sample point.
"""

from __future__ import annotations

#: Version tag of the exported metrics block.
METRICS_SCHEMA = "metrics/v1"

#: Default sample cap per series; beyond it the series is compacted
#: pairwise (gauges keep each pair's extremum, counters the later
#: total), halving resolution while preserving the waterline shape.
MAX_SAMPLES = 4096


def _label_key(labels):
    return tuple(sorted(labels.items()))


class _Instrument:
    """Shared state of one named, labelled metric series."""

    kind = "instrument"

    def __init__(self, registry, name, labels):
        self.registry = registry
        self.name = name
        self.labels = dict(labels)
        self.samples = []  # [sim_time, tick, value]

    def _append(self, value, crest=False):
        # Hot path (every charge/release/inc lands here): the clock
        # read and tick bump are inlined rather than going through
        # _now()/_next_tick() — the call overhead alone is measurable
        # against the 5% metrics-overhead budget (read as
        # staged_ledgered vs staged_alexnet wall_s in benchmarks/e2e).
        registry = self.registry
        clock = registry.clock
        registry._tick += 1
        self.samples.append([
            clock.now if clock is not None else 0.0,
            registry._tick,
            value,
        ])
        if len(self.samples) > registry.max_samples:
            self._compact()
        sink = registry.sink
        if sink is not None:
            # Throttled: the first sample of a series and every
            # ``sink_every``-th after it stream into the run ledger —
            # enough for live counter tracks without paying a ledger
            # line per sample against the 5% overhead budget. The one
            # exception is a ``crest`` sample (a gauge setting a new
            # peak/low watermark): those always stream, so a mid-run
            # memory spike that falls between throttle points still
            # survives into the ledger and the history summaries.
            # Crest emits are self-bounding — each one requires a
            # strictly new watermark, so a series pays at most one
            # extra line per new extreme, not one per sample.
            count = len(self.samples)
            if crest or count == 1 or count % registry.sink_every == 0:
                sink.emit("metric", metric=self.name,
                          labels=self.labels, value=value)

    def _compact(self):
        pairs = zip(self.samples[::2], self.samples[1::2])
        compacted = [self._pick(a, b) for a, b in pairs]
        if len(self.samples) % 2:
            # an odd tail (always the just-appended sample) survives
            compacted.append(self.samples[-1])
        self.samples = compacted

    def _pick(self, first, second):
        return second

    def to_dict(self):
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "samples": [list(sample) for sample in self.samples],
        }

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name}{self.labels}: "
            f"{len(self.samples)} samples>"
        )


class Counter(_Instrument):
    """A monotonically increasing total, exported as a cumulative
    series."""

    kind = "counter"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.total = 0

    def inc(self, value=1):
        self.total += value
        self._append(self.total)
        return self.total

    def to_dict(self):
        payload = super().to_dict()
        payload["total"] = self.total
        return payload


class Gauge(_Instrument):
    """A level that moves both ways, with exact high/low watermarks."""

    kind = "gauge"

    def __init__(self, registry, name, labels):
        super().__init__(registry, name, labels)
        self.value = 0
        self.peak = None
        self.low = None

    def set(self, value):
        self.value = value
        crest = False
        if self.peak is None or value > self.peak:
            self.peak = value
            crest = True
        if self.low is None or value < self.low:
            self.low = value
            crest = True
        self._append(value, crest=crest)
        return value

    def add(self, delta):
        return self.set(self.value + delta)

    def _pick(self, first, second):
        # Keep the extremum so compaction never flattens a waterline
        # crest; ties keep the later sample (current level survives).
        return first if abs(first[2]) > abs(second[2]) else second

    def to_dict(self):
        payload = super().to_dict()
        payload.update({
            "last": self.value,
            "peak": self.peak,
            "low": self.low,
        })
        return payload


#: Default histogram bucket boundaries: powers of 4 cover bytes and
#: seconds alike across the mini-to-paper scale range.
DEFAULT_BUCKETS = tuple(4 ** exp for exp in range(16))


class Histogram(_Instrument):
    """A value distribution as cumulative-style bucket counts."""

    kind = "histogram"

    def __init__(self, registry, name, labels, buckets=None):
        super().__init__(registry, name, labels)
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0
        self.min = None
        self.max = None

    def observe(self, value):
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[position] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self._append(value)
        return value

    def observe_many(self, values):
        """Bulk :meth:`observe` for deferred flushes.

        Updates count/sum/min/max and the bucket counts exactly as a
        loop of ``observe`` calls would, but appends a single
        time-series sample (the batch's last value) — the values were
        collected earlier, so per-value flush-time timestamps would be
        fiction anyway, and hot paths that defer recording (the
        executor's per-operator timer) shouldn't pay a sample append
        per value when they finally flush.
        """
        from bisect import bisect_left

        if not values:
            return None
        buckets = self.buckets
        counts = self.bucket_counts
        for value in values:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            # bisect_left finds the first bound >= value, i.e. the
            # same bucket the linear scan in ``observe`` picks; past
            # the last bound it lands on the overflow slot.
            counts[bisect_left(buckets, value)] += 1
        self._append(values[-1])
        return values[-1]

    def to_dict(self):
        payload = super().to_dict()
        payload.update({
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": [
                [bound, count]
                for bound, count in zip(self.buckets, self.bucket_counts)
            ] + [["inf", self.bucket_counts[-1]]],
        })
        return payload


class MetricsRegistry:
    """Collects time-series instruments for one (or several) runs.

    Parameters
    ----------
    clock:
        Optional shared :class:`~repro.faults.clock.SimulatedClock`;
        with a fault injector attached the cluster context shares its
        clock here, so samples carry deterministic simulated
        timestamps. Without one, sim timestamps stay 0 and the
        registry-global tick orders samples.
    """

    enabled = True

    def __init__(self, clock=None, max_samples=MAX_SAMPLES):
        self.clock = clock
        self.max_samples = int(max_samples)
        #: Optional :class:`~repro.observe.ledger.RunLedger`: when set
        #: (via ``ClusterContext.attach_ledger``), samples stream into
        #: the ledger throttled to one in :attr:`sink_every` per
        #: series (plus each series' first sample).
        self.sink = None
        self.sink_every = 64
        self._instruments = {}
        self._tick = 0

    # ------------------------------------------------------------------
    def _get(self, cls, name, labels, **extra):
        key = (cls.kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(
                self, name, labels, **extra
            )
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

    def histogram(self, name, buckets=None, **labels):
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def instruments(self, name=None, **labels):
        """All instruments, optionally filtered by name and a label
        subset."""
        matches = []
        for instrument in self._instruments.values():
            if name is not None and instrument.name != name:
                continue
            if any(instrument.labels.get(k) != v for k, v in labels.items()):
                continue
            matches.append(instrument)
        return matches

    def counter_totals(self):
        """``{(name, label_pairs): total}`` snapshot of every counter.

        ``label_pairs`` is the sorted label tuple, so re-incrementing
        through ``counter(name, **dict(label_pairs))`` addresses the
        same series. The process backend snapshots this in the forked
        worker before and after each task and ships only the deltas
        back to the driver registry.
        """
        return {
            (name, label_key): instrument.total
            for (kind, name, label_key), instrument
            in self._instruments.items()
            if kind == "counter"
        }

    def export(self):
        """JSON-safe ``metrics/v1`` dict of every series — what
        ``repro run --metrics-json`` writes and ``repro report
        --metrics-json`` renders."""
        return {
            "schema": METRICS_SCHEMA,
            "ticks": self._tick,
            "series": [
                instrument.to_dict()
                for instrument in self._instruments.values()
            ],
        }

    def __repr__(self):
        return (
            f"<MetricsRegistry {len(self._instruments)} series, "
            f"tick={self._tick}>"
        )


def find_series(source, name, **labels):
    """Series dicts matching ``name`` and a label subset.

    ``source`` is a registry or a registry export.
    """
    if hasattr(source, "export"):
        source = source.export()
    if source is None:
        return []
    matches = []
    for series in source.get("series", ()):
        if series.get("name") != name:
            continue
        series_labels = series.get("labels", {})
        if any(series_labels.get(k) != v for k, v in labels.items()):
            continue
        matches.append(series)
    return matches


def series_peak(series):
    """Highest value a series dict reached (gauges report their exact
    ``peak`` watermark; counters their total; histograms their max)."""
    if series is None:
        return None
    for key in ("peak", "total", "max"):
        if series.get(key) is not None:
            return series[key]
    samples = series.get("samples") or ()
    return max((sample[2] for sample in samples), default=None)


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    name = "null"
    labels = {}
    samples = ()
    total = 0
    value = 0
    peak = None
    low = None
    count = 0

    def inc(self, value=1):
        pass

    def set(self, value):
        pass

    def add(self, delta):
        pass

    def observe(self, value):
        pass

    def observe_many(self, values):
        pass

    def to_dict(self):
        return {}

    def __repr__(self):
        return "<NullInstrument>"


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Disabled registry: every instrument is a shared no-op.
    Instrumented code can test ``metrics.enabled`` before computing
    anything expensive for a sample."""

    enabled = False
    clock = None
    sink = None

    def counter(self, name, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name, **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name, buckets=None, **labels):
        return _NULL_INSTRUMENT

    def instruments(self, name=None, **labels):
        return []

    def export(self):
        return None

    def __repr__(self):
        return "<NullMetrics>"


#: The process-wide disabled registry every layer defaults to.
NULL_METRICS = NullMetrics()
