"""Time-series metrics for Vista runs: one event stream, one grouping.

Where the tracer (:mod:`repro.trace`) answers "where did the time go"
with span *durations*, this registry answers "what was the state over
time": per-region memory occupancy, cache residency, crash counts —
the Figure 4A quantities that decide whether a run crashes, spills, or
sails. A :class:`MetricsRegistry` hands out two instrument kinds:

- :class:`Counter` — monotonically increasing totals (tasks run, bytes
  spilled, retries); each increment samples the running total.
- :class:`Gauge` — a level that moves both ways (region occupancy);
  each ``set`` samples the level, and ``peak``/``low`` are its exact
  watermarks.

Every sample is one ``obs/v1``-shaped ``metric`` event (``metric``,
``labels``, ``value``, ``sim_time_s``) appended to
``MetricsRegistry.events``; an instrument keeps only its running state.
A sample's *tick* is its 1-based position in that list, so ticks order
every sample across all instruments and give waterline renderings a
deterministic logical time axis even when the simulated clock never
advances. :func:`series_from_events` is the one grouping of such events
into series — of a registry's events for ``export()`` (``metrics/v1``)
and of a recorded ledger's for the run summary alike.

The module-level :data:`NULL_METRICS` mirrors ``NULL_TRACER``: every
instrument lookup returns one shared no-op instrument, so
un-instrumented runs pay only an attribute lookup per sample point.
"""

from __future__ import annotations

#: Version tag of the exported metrics block.
METRICS_SCHEMA = "metrics/v1"


def _label_key(labels):
    return tuple(sorted(labels.items()))


def metric_key(name, labels):
    """``name{k=v,…}`` — the flat key of one metric series (grouping,
    record ``metrics`` block, Perfetto counter track)."""
    if not labels:
        return str(name)
    inner = ",".join(
        f"{key}={labels[key]}" for key in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def series_from_events(events):
    """Group the ``metric`` events of a stream — a registry's or a
    ledger's — into series: ``{metric_key: {"name", "labels",
    "samples"}}`` in first-sample order, each sample ``[sim_time_s,
    tick, value]`` with ``tick`` the event's 1-based position in
    ``events``. This is the one grouping of metric samples in the
    package."""
    series = {}
    for tick, event in enumerate(events, 1):
        if event.get("kind") != "metric":
            continue
        labels = event.get("labels") or {}
        key = metric_key(event.get("metric"), labels)
        found = series.get(key)
        if found is None:
            found = series[key] = {"name": event.get("metric"),
                                   "labels": dict(labels), "samples": []}
        found["samples"].append(
            [event.get("sim_time_s", 0.0), tick, event.get("value")]
        )
    return series


class _Instrument:
    """Running state of one named, labelled metric series."""

    kind = "instrument"

    def __init__(self, registry, name, labels):
        self.registry = registry
        self.name = name
        self.labels = dict(labels)
        #: Samples this series has taken (the sink's throttle counts
        #: them).
        self.count = 0
        self._event = {"kind": "metric", "metric": name,
                       "labels": self.labels, "value": None,
                       "sim_time_s": 0.0}

    def _append(self, value, crest=False):
        # Hot path (every charge/release/inc lands here): the event is
        # a copy of the series' own template, which is cheaper than
        # building the dict, and nothing is called — call overhead
        # alone is measurable against the 5% telemetry-overhead target
        # (read as staged_ledgered vs staged_alexnet wall_s in
        # benchmarks/e2e).
        registry = self.registry
        clock = registry.clock
        event = self._event.copy()
        event["value"] = value
        if clock is not None:
            event["sim_time_s"] = clock.now
        registry.events.append(event)
        self.count += 1
        sink = registry.sink
        if sink is not None:
            # Throttled: the first sample of a series and every
            # ``sink_every``-th after it stream into the run ledger —
            # enough for live counter tracks without paying a ledger
            # line per sample. A ``crest`` sample (a gauge setting a
            # new peak/low watermark) always streams, so a mid-run
            # memory spike between throttle points still reaches the
            # ledger; each one needs a strictly new watermark, so a
            # series pays at most one extra line per new extreme.
            count = self.count
            if crest or count == 1 or count % registry.sink_every == 0:
                sink.emit(**event)

    def state(self):
        """The running state ``export()`` puts beside the samples."""
        return {}

    def __repr__(self):
        return (
            f"<{type(self).__name__} {self.name}{self.labels}: "
            f"{self.count} samples>"
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

    def state(self):
        return {"total": self.total}


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

    def state(self):
        return {"last": self.value, "peak": self.peak, "low": self.low}


class MetricsRegistry:
    """Records the metric events of one (or several) runs.

    Parameters
    ----------
    clock:
        Optional shared :class:`~repro.faults.clock.SimulatedClock`;
        with a fault injector attached the cluster context shares its
        clock here, so samples carry deterministic simulated
        timestamps. Without one, sim timestamps stay 0 and the tick
        orders samples.
    """

    enabled = True

    def __init__(self, clock=None):
        self.clock = clock
        #: Optional :class:`~repro.observe.ledger.RunLedger`: when set
        #: (via ``ClusterContext.attach_ledger``), samples stream into
        #: the ledger throttled to one in :attr:`sink_every` per
        #: series (plus each series' first sample and every crest).
        self.sink = None
        self.sink_every = 64
        #: The recorded ``metric`` events; a sample's tick is its
        #: 1-based position here.
        self.events = []
        self._instruments = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name, labels):
        key = (cls.kind, name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = cls(self, name, labels)
        return instrument

    def counter(self, name, **labels):
        return self._get(Counter, name, labels)

    def gauge(self, name, **labels):
        return self._get(Gauge, name, labels)

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
        """JSON-safe ``metrics/v1`` dict of every series — the grouping
        of :attr:`events` beside each instrument's running state; what
        ``repro run --metrics-json`` writes and ``repro report
        --metrics-json`` renders."""
        grouped = series_from_events(self.events)
        series = []
        for instrument in self._instruments.values():
            found = grouped.get(metric_key(instrument.name,
                                           instrument.labels))
            series.append({
                "name": instrument.name,
                "type": instrument.kind,
                "labels": dict(instrument.labels),
                "samples": found["samples"] if found else [],
                **instrument.state(),
            })
        return {"schema": METRICS_SCHEMA, "ticks": len(self.events),
                "series": series}

    def __repr__(self):
        return (
            f"<MetricsRegistry {len(self._instruments)} series, "
            f"tick={len(self.events)}>"
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
    ``peak`` watermark, counters their total)."""
    if series is None:
        return None
    for key in ("peak", "total"):
        if series.get(key) is not None:
            return series[key]
    samples = series.get("samples") or ()
    return max((sample[2] for sample in samples), default=None)


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind."""

    __slots__ = ()
    name = "null"
    labels = {}
    count = 0
    total = 0
    value = 0
    peak = None
    low = None

    def inc(self, value=1):
        pass

    def set(self, value):
        pass

    def add(self, delta):
        pass

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

    def instruments(self, name=None, **labels):
        return []

    def export(self):
        return None

    def __repr__(self):
        return "<NullMetrics>"


#: The process-wide disabled registry every layer defaults to.
NULL_METRICS = NullMetrics()
