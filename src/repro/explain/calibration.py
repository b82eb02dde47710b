"""Parallel-runtime calibration of the process backend.

:func:`calibrate_parallel` runs the staged plan per ``cpu`` setting on
both execution backends with tracing on and joins the cost model's
predicted inference seconds (:func:`repro.costmodel.runtime
.estimate_runtime` priced on the *executable* CNN's own ``cnn.stats``)
against the measured span-tree wall seconds of the feature stage;
:func:`measure_parallel_capacity` reports how many cores' worth of
throughput the host really delivers, so a scaling claim is only
asserted where it can be measured. ``benchmarks/bench_parallel.py`` is
the one caller; :func:`drift_violations` is its ``--check`` gate
between two reports' :meth:`ParallelCalibrationReport.results` maps.

Memory-peak prediction is checked where it is exact
(``tests/test_explain.py::TestPeakPrediction``) and runtime
prediction where it is measured end to end
(``costmodel.predicted_over_observed`` in ``benchmarks/e2e``).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from time import perf_counter

from repro.core.config import DatasetStats
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import ALL_PLANS
from repro.costmodel import params
from repro.costmodel.crashes import ExecutionSetup
from repro.costmodel.runtime import estimate_runtime
from repro.dataflow.context import ClusterContext
from repro.trace import Tracer, spans_wall_seconds

#: Span names backing each runtime-breakdown stage we calibrate.
#: ``read`` has no executable analogue (synthetic data starts in
#: memory) and ``overhead`` aggregates scheduling noise — both are
#: skipped.
STAGE_SPANS = {
    "inference": ("inference", "eager-materialize", "premat"),
    "join": ("join",),
    "train": ("train",),
}

#: Drift gates: memory ratios are deterministic, runtime ratios divide
#: a deterministic prediction by measured spans whose wall-clock noise
#: dominates — hence the asymmetric tolerances. The runtime gate was
#: 100x while the engine was serial-only (the cost model's parallelism
#: term was unvalidatable, so the gate was a placeholder); with the
#: process backend actually parallelizing waves, back-to-back
#: calibration runs were measured to drift well under 10x even on
#: noisy shared hosts, so the gate now sits at a measured band with
#: headroom instead of a formality.
MEMORY_DRIFT_GATE = 1.05
RUNTIME_DRIFT_GATE = 25.0


def drift_violations(old_results, new_results,
                     memory_gate=MEMORY_DRIFT_GATE,
                     runtime_gate=RUNTIME_DRIFT_GATE):
    """Calibration drift between two
    :meth:`ParallelCalibrationReport.results` maps: ``{key: (old,
    new)}`` for every shared ratio whose relative change exceeds its
    gate. Empty dict means the cost model still
    predicts like the committed baseline."""
    violations = {}
    for key, old in old_results.items():
        new = new_results.get(key)
        if new is None or not isinstance(old, (int, float)):
            continue
        if key.startswith("memory_ratio"):
            gate = memory_gate
        elif key.startswith("runtime_ratio"):
            gate = runtime_gate
        else:
            continue
        if old <= 0 or new <= 0:
            if old != new:
                violations[key] = (old, new)
            continue
        change = max(old / new, new / old)
        if change > gate:
            violations[key] = (old, new)
    return violations


def _setup_from_budget(config, budget, label):
    """The :class:`ExecutionSetup` matching the budget the run actually
    executes under (not the paper-scale caps in ``config``)."""
    heap = budget.user_bytes + budget.core_bytes + budget.storage_bytes
    return ExecutionSetup(
        label=label,
        backend="spark",
        cpu=config.cpu,
        num_partitions=config.num_partitions,
        join=config.join,
        persistence=config.persistence,
        heap_bytes=int(heap),
        user_cap_bytes=int(budget.user_bytes),
        core_cap_bytes=int(budget.core_bytes),
        storage_cap_bytes=int(budget.storage_bytes),
        storage_spills=bool(budget.storage_elastic),
    )


# ----------------------------------------------------------------------
# parallel-runtime calibration (process backend)
# ----------------------------------------------------------------------
@dataclass
class ParallelCalibrationRow:
    """One ``cpu`` setting's serial-vs-process wall-clock join."""

    cpu: int
    serial_feature_s: float = 0.0
    process_feature_s: float = 0.0
    serial_total_s: float = 0.0
    process_total_s: float = 0.0
    predicted_feature_s: float = 0.0
    speedup: float = 0.0            # serial / process feature wall
    parallel_ratio: float = None    # predicted / observed process wall

    def to_dict(self):
        return {
            "cpu": self.cpu,
            "serial_feature_s": self.serial_feature_s,
            "process_feature_s": self.process_feature_s,
            "serial_total_s": self.serial_total_s,
            "process_total_s": self.process_total_s,
            "predicted_feature_s": self.predicted_feature_s,
            "speedup": self.speedup,
            "parallel_ratio": self.parallel_ratio,
        }


@dataclass
class ParallelCalibrationReport:
    """Speedup curve + predicted-vs-actual parallel feature walls.

    ``cores_available`` is what the scheduler lets the process run on;
    ``parallel_capacity`` is what :func:`measure_parallel_capacity`
    found those cores to deliver (a 2-vCPU VM on one shared host core
    reads 2 and 1.0)."""

    model: str
    num_records: int
    plan: str
    cores_available: int
    parallel_capacity: float
    rows: list

    def delivers(self, cores):
        """Whether a claim that needs ``cores`` cores can be measured
        here: that many are exposed *and* their measured throughput is
        within half a core of it."""
        return (
            self.cores_available >= cores
            and self.parallel_capacity >= cores - 0.5
        )

    def to_dict(self):
        return {
            "model": self.model,
            "num_records": self.num_records,
            "plan": self.plan,
            "cores_available": self.cores_available,
            "parallel_capacity": self.parallel_capacity,
            "rows": [row.to_dict() for row in self.rows],
        }

    def results(self):
        """Flat scalars for ``BENCH_parallel.json``'s ``results``
        block. Wall-clock
        fields and their ratios carry the ``capacity`` marker (host-
        dependent; :func:`drift_violations` owns their comparison),
        while ``cores_available`` is compared exactly — a speedup
        recorded on a single-core host must never silently gate a
        multi-core run's curve. ``parallel_capacity`` is a measured
        host property, informational."""
        flat = {
            "cores_available": self.cores_available,
            "parallel_capacity": self.parallel_capacity,
        }
        for row in self.rows:
            flat[f"speedup_capacity:cpu{row.cpu}"] = row.speedup
            flat[f"process_feature_s_capacity:cpu{row.cpu}"] = (
                row.process_feature_s
            )
            if row.parallel_ratio is not None:
                flat[f"runtime_ratio_capacity:parallel:cpu{row.cpu}"] = (
                    row.parallel_ratio
                )
        return flat


#: Iterations of the capacity probe's kernel: ~50 ms of interpreter
#: byte code, long against a fork and short against a bench run.
_SPIN_ITERATIONS = 1_000_000
_PROBE_REPEATS = 3


def _spin():
    """The probe's fixed CPU kernel: no memory traffic, no syscalls."""
    total = 0
    for value in range(_SPIN_ITERATIONS):
        total += value * value
    return total


def _slowest_of_concurrent_spins(count):
    """Fork ``count`` children, release them together, and return the
    longest time any of them took over one :func:`_spin` (each child
    times itself, so fork latency is not in it). Every child is reaped
    and every pipe end closed on every path."""
    release_r, release_w = os.pipe()
    children = []
    try:
        try:
            for _ in range(count):
                result_r, result_w = os.pipe()
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        os.close(release_w)
                        os.read(release_r, 1)  # EOF once the parent lets go
                        start = perf_counter()
                        _spin()
                        os.write(
                            result_w,
                            struct.pack("d", perf_counter() - start),
                        )
                        status = 0
                    finally:
                        os._exit(status)
                os.close(result_w)
                children.append((pid, result_r))
        finally:
            os.close(release_w)  # the starting gun, or the way out
        reports = [os.read(result_r, 8) for _, result_r in children]
        if any(len(report) != 8 for report in reports):
            raise RuntimeError(
                "parallel-capacity probe: a child exited before reporting"
            )
        return max(struct.unpack("d", report)[0] for report in reports)
    finally:
        os.close(release_r)
        for pid, result_r in children:
            os.close(result_r)
            os.waitpid(pid, 0)


def measure_parallel_capacity(cores):
    """How many cores' worth of throughput ``cores`` concurrent
    processes really get: ``cores * t1 / tn``, with ``t1`` one forked
    child's time over a fixed CPU kernel and ``tn`` the slowest of
    ``cores`` children running it at once (best of
    :data:`_PROBE_REPEATS` each). Near ``cores`` on dedicated
    hardware, well under it when the "cores" are hyperthreads, and
    1.0 when they are vCPUs time-sliced onto one host core."""
    if cores < 2:
        return 1.0
    alone = min(
        _slowest_of_concurrent_spins(1) for _ in range(_PROBE_REPEATS)
    )
    together = min(
        _slowest_of_concurrent_spins(cores) for _ in range(_PROBE_REPEATS)
    )
    return round(cores * alone / together, 2)


def calibrate_parallel(cnn, dataset, layers, config, budget, num_nodes=2,
                       cores_per_node=4, cpus=(1, 2, 4), plan=None,
                       repeats=1, downstream_fn=None, user_alpha=2.0):
    """Measure the staged plan's feature-stage wall clock per ``cpu``
    on both backends, joined against the cost model's predicted
    inference seconds — the parallel-runtime calibration the serial
    engine could never provide (its ``cpu`` knob changed accounting,
    not wall time).

    For each ``cpu`` the serial baseline runs once and the process
    backend runs ``repeats`` times (best wall kept — forks and pipe
    transfers add scheduling noise the cost model does not price).
    Returns a :class:`ParallelCalibrationReport` whose speedup column
    is serial/process on the *same* cpu value.
    """
    from dataclasses import replace as _replace

    layers = list(layers)
    plan = plan if plan is not None else ALL_PLANS["staged"]
    plan_label = getattr(plan, "label", str(plan))
    dataset_stats = DatasetStats.from_dataset(dataset)
    cluster = params.ClusterSpec(
        num_nodes=num_nodes,
        cores_per_node=cores_per_node,
        system_memory_bytes=budget.system_bytes,
    )
    rows = []
    for cpu in cpus:
        run_config = _replace(config, cpu=int(cpu))
        walls = {}
        for backend in ("serial", "process"):
            best_feature, best_total = None, None
            attempts = 1 if backend == "serial" else max(1, int(repeats))
            for _ in range(attempts):
                tracer = Tracer()
                context = ClusterContext(
                    budget, num_nodes=num_nodes,
                    cores_per_node=cores_per_node, cpu=int(cpu),
                    exec_backend=backend,
                )
                executor = FeatureTransferExecutor(
                    context, cnn, dataset, layers, run_config,
                    downstream_fn=downstream_fn or (lambda f, label: {}),
                    tracer=tracer,
                )
                try:
                    executor.run(plan)
                finally:
                    context.exec_backend.close()
                trace = tracer.export()
                feature = sum(
                    spans_wall_seconds(trace, name)
                    for name in STAGE_SPANS["inference"]
                )
                total = spans_wall_seconds(trace, "workload")
                if best_feature is None or feature < best_feature:
                    best_feature, best_total = feature, total
            walls[backend] = (round(best_feature, 6), round(best_total, 6))
        predicted = estimate_runtime(
            cnn.stats, layers, dataset_stats, plan,
            _setup_from_budget(run_config, budget, f"cpu{cpu}"), cluster,
            alpha=user_alpha, label=f"cpu{cpu}",
        )
        predicted_feature = round(
            predicted.breakdown.get("inference", 0.0), 6
        )
        row = ParallelCalibrationRow(
            cpu=int(cpu),
            serial_feature_s=walls["serial"][0],
            process_feature_s=walls["process"][0],
            serial_total_s=walls["serial"][1],
            process_total_s=walls["process"][1],
            predicted_feature_s=predicted_feature,
        )
        if row.process_feature_s > 0:
            row.speedup = round(
                row.serial_feature_s / row.process_feature_s, 4
            )
            if predicted_feature > 0:
                row.parallel_ratio = round(
                    predicted_feature / row.process_feature_s, 4
                )
        rows.append(row)
    cores_available = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else (os.cpu_count() or 1)
    )
    return ParallelCalibrationReport(
        model=cnn.name,
        num_records=len(dataset),
        plan=plan_label,
        cores_available=cores_available,
        parallel_capacity=measure_parallel_capacity(cores_available),
        rows=rows,
    )
