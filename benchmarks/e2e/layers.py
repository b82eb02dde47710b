"""The traced pass: one traced iteration turned into per-layer metrics."""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
from time import perf_counter

import numpy as np

from repro.core.plans import ALL_PLANS
from repro.costmodel import estimate_runtime, vista_setup
from repro.costmodel.cnn_cost import executable_model_stats
from repro.explain.whatif import cluster_from_resources
from repro.observe.history import HistoryStore

from iteration import Downstream, iterate
from tracing import ROOT_SPAN, SpanRecorder, op_class
from workloads import (
    BASELINE, LEDGER_FILE, RESOURCES, SWEEP_PLANS, new_vista,
)

#: Plain iterations timed next to ``staged_ledgered`` for its ratio.
TWIN_ITERATIONS = 5


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4)
    return low, high


def machine_probe():
    """One-off: float32 512-cube matmul rate and 64 MB copy rate."""
    rng = np.random.default_rng(0)
    a = rng.random((512, 512), dtype=np.float32)
    b = rng.random((512, 512), dtype=np.float32)
    source = np.ones(64 * 1024 * 1024, dtype=np.uint8)
    target = np.empty_like(source)
    matmul_s, copy_s = [], []
    for _ in range(5):
        start = perf_counter()
        a @ b
        matmul_s.append(perf_counter() - start)
        start = perf_counter()
        np.copyto(target, source)
        copy_s.append(perf_counter() - start)
    return {
        "bench.matmul_gflops": 2 * 512 ** 3 / min(matmul_s) / 1e9,
        "bench.memcpy_gb_s": source.nbytes / min(copy_s) / 1e9,
    }


def _ranks(values):
    values = np.asarray(values, dtype=np.float64)
    ranks = np.empty(len(values))
    ranks[np.argsort(values, kind="stable")] = np.arange(len(values))
    for value in np.unique(values):   # tied values share their mean rank
        tied = values == value
        ranks[tied] = ranks[tied].mean()
    return ranks


def spearman(first, second):
    a, b = _ranks(first), _ranks(second)
    if a.std() == 0 or b.std() == 0:
        return 0.0
    return float(np.corrcoef(a, b)[0, 1])


def predicted_seconds(state, plans):
    """The cost model's estimate for each of ``plans`` on this
    workload, priced on the executable model's own statistics."""
    vista = new_vista(state, None)
    setup = vista_setup(state.extras.get("config") or vista.optimize())
    stats = executable_model_stats(state.cnn)
    cluster = cluster_from_resources(RESOURCES)
    return {
        plan: estimate_runtime(
            stats, state.layers, vista.dataset_stats, ALL_PLANS[plan],
            setup, cluster, base_layer=state.workload.premat_layer,
        ).seconds
        for plan in plans
    }


def _median_wall(iterations, attribute, value):
    """Median over the timed iterations of the summed wall of the runs
    whose ``attribute`` (``"plan"`` or ``"label"``) is ``value``."""
    return statistics.median(
        sum(run.wall_s for run in iteration.runs
            if getattr(run, attribute) == value)
        for iteration in iterations
    )


def traced_pass(state, iterations, timings, trace_file):
    """One traced iteration plus the reference runs some per-layer
    metrics are defined against; returns ``(metrics, findings)``."""
    workload = state.workload
    walls = [iteration.wall_s for iteration in iterations]
    wall_median = statistics.median(walls)
    recorder = SpanRecorder(
        {op.name: op_class(op) for op in state.cnn.layers}
    )
    recorder.iteration = len(iterations)
    ledger = {}

    def ingest_ledger(state):
        path = os.path.join(state.iter_dir, LEDGER_FILE)
        if os.path.exists(path):
            ledger["bytes"] = os.path.getsize(path)
            HistoryStore(os.path.join(state.tmp, "history")).ingest(path)

    with recorder.installed([(Downstream, "train", "ml.downstream")]):
        traced, _ = iterate(state, recorder, after=ingest_ledger)
    if traced.error is not None:
        raise SystemExit("traced iteration raised:\n" + traced.error)
    self_s, total_s, calls = recorder.summary()

    baseline = dataclasses.replace(state, workload=BASELINE)
    baseline_wave_s = 0.0
    if workload.name == "staged_process":
        # Only the backend differs from the twin, so the gap between
        # the two inclusive run_wave times is the dispatch cost.
        twin = SpanRecorder({})
        with twin.installed():
            iterate(baseline, twin)
        baseline_wave_s = twin.summary()[1]["dataflow.backend.run_wave"]

    overhead_ratio = 0.0
    if workload.name == "staged_ledgered":
        twin_walls = [
            iterate(baseline)[0].wall_s for _ in range(TWIN_ITERATIONS)
        ]
        overhead_ratio = wall_median / statistics.median(twin_walls)

    def run_metric(key):
        return [run.metrics.get(key, 0) for run in traced.runs]

    def region_peak(region):
        return max(
            run.metrics["region_peak_bytes"][region] for run in traced.runs
        )

    def by_label(label, key):
        return sum(
            run.metrics.get(key, 0) for run in traced.runs
            if run.label == label
        )

    flops = sum(run_metric("inference_flops"))
    forward_s = self_s["cnn.forward"]
    gflops_per_s = flops / forward_s / 1e9 if forward_s else 0.0
    probe = machine_probe()
    wave_s = total_s["dataflow.backend.run_wave"]
    plans = sorted({run.plan for run in traced.runs},
                   key=SWEEP_PLANS.index)
    predicted = predicted_seconds(state, plans)
    observed = {
        plan: _median_wall(iterations, "plan", plan) for plan in SWEEP_PLANS
    }
    scaled_walls = [iteration.scaled("wall_s") for iteration in iterations]
    low, high = quartiles(scaled_walls)
    metrics = {
        "core.optimizer.optimize_s": self_s["core.optimizer.optimize"],
        "core.executor.self_s": self_s[ROOT_SPAN],
        "core.tasks_run": sum(run_metric("tasks_run")),
        **{f"core.plan_wall_s.{plan}": observed[plan]
           for plan in SWEEP_PLANS},
        "data.generate_s": statistics.median(
            t["data.generate_s"] for t in timings
        ),
        "cnn.forward_s": forward_s,
        "cnn.forward_calls": calls["cnn.forward"],
        "cnn.flops": flops,
        "cnn.gflops_per_s": gflops_per_s,
        "cnn.roofline_fraction":
            gflops_per_s / probe["bench.matmul_gflops"],
        **{f"cnn.op_s.{group}": recorder.op_seconds[group]
           for group in ("conv", "lrn", "pool", "dense", "block", "other")},
        "dataflow.table.from_rows_s": self_s["dataflow.table.from_rows"],
        "dataflow.table.map_blocks_self_s":
            self_s["dataflow.table.map_blocks"],
        "dataflow.table.cache_s": self_s["dataflow.table.cache"],
        "dataflow.table.unpersist_s": self_s["dataflow.table.unpersist"],
        "dataflow.table.shuffle_s": self_s["dataflow.table.shuffle"],
        "dataflow.joins.join_self_s": self_s["dataflow.joins.join"],
        "dataflow.joins.shuffle_bytes": sum(run_metric("shuffle_bytes")),
        "dataflow.storage.spilled_bytes": sum(run_metric("spilled_bytes")),
        "dataflow.storage.spill_read_bytes":
            sum(run_metric("spill_read_bytes")),
        "dataflow.storage.peak_bytes": max(run_metric("storage_peak_bytes")),
        "dataflow.columnar.to_buffer_s":
            self_s["dataflow.columnar.to_buffer"],
        "dataflow.columnar.to_buffer_bytes": recorder.buffer_bytes,
        "dataflow.columnar.from_buffer_s":
            self_s["dataflow.columnar.from_buffer"],
        "dataflow.backend.run_wave_s": wave_s,
        "dataflow.backend.dispatch_overhead_s":
            wave_s - baseline_wave_s if baseline_wave_s else 0.0,
        "features.pooling.pool_s": self_s["features.pooling.pool"],
        "features.store.get_s": self_s["features.store.get"],
        "features.store.put_s": statistics.median(
            t.get("features.store.put_s", 0.0) for t in timings
        ),
        "features.store.stored_bytes":
            state.timings.get("features.store.stored_bytes", 0),
        "ml.downstream_s": self_s["ml.downstream"],
        "ml.downstream_calls": calls["ml.downstream"],
        **{f"memory.peak_bytes.{region}": region_peak(region)
           for region in ("user", "storage", "dl", "driver")},
        "recovery.cold_wall_s": _median_wall(iterations, "label", "cold"),
        "recovery.resume_wall_s":
            _median_wall(iterations, "label", "resume"),
        "recovery.store.put_partition_s":
            self_s["recovery.store.put_partition"],
        "recovery.store.commit_stage_s":
            self_s["recovery.store.commit_stage"],
        "recovery.store.restore_stage_s":
            self_s["recovery.store.restore_stage"],
        "recovery.store.checkpoint_bytes":
            by_label("cold", "checkpoint_bytes"),
        "recovery.store.restored_partitions":
            by_label("resume", "restore_total"),
        "recovery.store.saved_ratio":
            by_label("resume", "recomputation_saved_ratio"),
        "observe.ledger.emit_s": self_s["observe.ledger.emit"],
        "observe.ledger.emit_calls": calls["observe.ledger.emit"],
        "observe.ledger.close_s": self_s["observe.ledger.close"],
        "observe.ledger.file_bytes": ledger.get("bytes", 0),
        "trace.export_s": self_s["trace.export"],
        "metrics.export_s": self_s["metrics.export"],
        "observe.history.ingest_s": self_s["observe.history.ingest"],
        "observe.overhead_ratio": overhead_ratio,
        "costmodel.predicted_s": sum(predicted.values()),
        "costmodel.predicted_over_observed":
            sum(predicted.values()) / wall_median,
        "costmodel.plan_rank_spearman": spearman(
            [predicted[plan] for plan in plans],
            [observed[plan] for plan in plans],
        ) if len(plans) > 1 else 0.0,
        "bench.attributed_ratio": 1.0 - self_s[ROOT_SPAN] / traced.wall_s,
        "bench.trace_overhead_ratio": traced.wall_s / wall_median,
        "bench.wall_spread_ratio":
            (high - low) / statistics.median(scaled_walls),
        "bench.machine_speed_ratio":
            statistics.median(iteration.scale for iteration in iterations),
        **probe,
    }
    findings = []
    if metrics["bench.attributed_ratio"] < 0.95:
        findings.append(
            f"{self_s[ROOT_SPAN]:.4f} s of the traced iteration's "
            f"{traced.wall_s:.4f} s is covered by no layer span"
        )
    with open(trace_file, "w") as handle:
        json.dump({"workload": workload.name, "spans": recorder.export()},
                  handle)
    return {name: float(value) for name, value in metrics.items()}, findings
