"""End-to-end runtime estimation for paper-scale workloads.

A plan is priced by walking the step list
:func:`~repro.core.plans.compile_plan` compiles for it — the list the
executor runs — so the cost model holds no second description of a
plan's shape. :func:`walk_plan` sizes every step (FLOPs of an
``INFER``, operand bytes of a ``JOIN``, Eq. 16 bytes of a ``CACHE``);
:func:`price_plan` turns the walk into seconds with the compute, I/O,
and scheduling terms; :func:`estimate_plan` applies crash detection
first. Each takes the :class:`~repro.core.config.Workload` record
first. Runtime *shapes* — which plan wins, by what factor, where spills
and crossovers appear — derive from the same mechanisms the paper
argues from; the absolute constants are calibrated to the paper's
measured anchors (see :mod:`repro.costmodel.params`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.core.config import DEFAULT_ALPHA, DEFAULT_MAX_PARTITION, Workload
from repro.core.plans import SOURCE, STAGED, Op, Step, compile_plan
from repro.core.sizing import table_bytes
from repro.costmodel import io_cost, params
from repro.costmodel.cnn_cost import inference_seconds
from repro.costmodel.crashes import detect_crash


@dataclass
class RuntimeReport:
    """Estimated outcome of one workload run."""

    label: str
    seconds: float
    crash: str | None = None
    breakdown: dict = field(default_factory=dict)
    spilled_bytes: int = 0

    @property
    def crashed(self):
        return self.crash is not None

    @property
    def minutes(self):
        return self.seconds / 60.0

    def cell(self):
        """Figure-6-style cell: minutes, or 'X' on a crash."""
        return "X" if self.crashed else f"{self.minutes:.1f}"


@dataclass
class WalkRow:
    """One compiled step, sized: ``flops`` per image of an ``INFER``,
    ``operand_bytes`` of a ``JOIN`` (|T_str| plus the other side),
    ``table_bytes`` (Eq. 16) of a ``CACHE`` and the ``cached_reads``
    later steps make of that table while it stays cached."""

    step: Step
    flops: int = 0
    operand_bytes: int = 0
    table_bytes: int = 0
    cached_reads: int = 0


@dataclass(frozen=True)
class PlanWalk:
    """A compiled plan as the cost model sees it: the sized rows, the
    reads of T_img (or the base table), and its Storage working set —
    the peak bytes cached at once with T_str counted once (Eq. 6), the
    largest single cached table, and the most reads of one cached
    table."""

    rows: tuple
    source_reads: int
    peak_bytes: int
    largest_table_bytes: int
    max_cached_reads: int

    def cached_bytes(self, static_storage):
        """The plan's cached working set. On static (memory-only)
        storage Vista evicts each previous-stage partition as its
        successor materializes, so only the largest table must fit."""
        return self.largest_table_bytes if static_storage else self.peak_bytes


def walk_plan(workload, plan):
    """One pass over the workload's ``compile_plan(plan, layers,
    base_layer)``, tracking which feature layers each table slot holds;
    returns a :class:`PlanWalk`."""
    model_stats = workload.model_stats
    dataset_stats = workload.dataset_stats
    n = dataset_stats.num_records
    tstr = dataset_stats.structured_table_bytes()
    holds = {SOURCE: ()}  # slot -> feature layers its table holds
    cached = {}           # slot -> the CACHE row that holds it
    rows = []
    source_reads = peak = 0
    for step in compile_plan(plan, workload.layers, workload.base_layer):
        held = holds[step.reads]
        row = WalkRow(step)
        if step.op is Op.INFER:
            if not held:  # T_img or the base table, joined or not
                source_reads += 1
            row.flops = model_stats.flops_between(
                step.from_layer, step.outputs[-1][0]
            )
            held = tuple(layer for layer, _ in step.outputs)
        elif step.op is Op.JOIN:
            row.operand_bytes = tstr + (n * sum(
                model_stats.materialized_bytes(layer) for layer in held
            ) if held else dataset_stats.image_table_bytes())
        elif step.op is Op.CACHE:
            row.table_bytes = table_bytes(workload, held)
            cached[step.reads] = row
            peak = max(peak, sum(
                r.table_bytes for r in cached.values()
            ) - (len(cached) - 1) * tstr)
        elif step.op is Op.UNPERSIST:
            del cached[step.reads]
        elif step.op is Op.PROJECT:
            held = (step.layer,)
        if step.op is not Op.CACHE and step.reads in cached:
            cached[step.reads].cached_reads += 1
        if step.writes:
            holds[step.writes] = held
        rows.append(row)
    return PlanWalk(
        rows=tuple(rows),
        source_reads=source_reads,
        peak_bytes=peak,
        largest_table_bytes=max(row.table_bytes for row in rows),
        max_cached_reads=max(row.cached_reads for row in rows),
    )


def _train_partitions(workload, layer, setup, cluster):
    """Partition count of the pooled training table for one layer."""
    dataset_stats = workload.dataset_stats
    pooled_bytes = (
        4 * (dataset_stats.num_structured_features
             + workload.model_stats.layer_stats(layer).transfer_dim)
        * dataset_stats.num_records
    )
    by_size = math.ceil(pooled_bytes / DEFAULT_MAX_PARTITION)
    floor = cluster.num_nodes * setup.cpu
    return max(floor, min(setup.num_partitions, by_size))


def price_plan(workload, plan, setup, cluster, use_gpu=False,
               train_iterations=None):
    """Price the compiled plan without the crash check; returns
    ``(rows, breakdown, spilled_bytes)``: one ``(step, seconds)`` row
    per ``INFER`` / ``JOIN`` / ``TRAIN`` in run order, the seconds per
    cost term, and the bytes Storage spills to disk."""
    model_stats = workload.model_stats
    dataset_stats = workload.dataset_stats
    base_layer = workload.base_layer
    walk = walk_plan(workload, plan)
    n = dataset_stats.num_records
    tstr = dataset_stats.structured_table_bytes()
    broadcast = setup.join == "broadcast"

    def infer_seconds(flops):
        return inference_seconds(
            flops * n, model_stats.name, cluster, setup.cpu, use_gpu=use_gpu
        )

    def seconds(row):
        step = row.step
        if step.op is Op.INFER:
            return infer_seconds(row.flops)
        if step.op is Op.JOIN:
            if broadcast:
                return io_cost.broadcast_seconds(tstr, cluster)
            # Joined after inference, a feature table is the operand —
            # usually much larger than the compressed images, which is
            # why pulling the join below inference helps (Sec. 4.2.1).
            return io_cost.shuffle_seconds(row.operand_bytes, cluster)
        # Training iterates over the *pooled* feature table, so its
        # partition count is bounded by that table's size, not np.
        return io_cost.training_seconds(
            n, dataset_stats.num_structured_features
            + model_stats.layer_stats(step.layer).transfer_dim,
            _train_partitions(workload, step.layer, setup, cluster),
            cluster, setup.cpu, iterations=train_iterations,
        )

    rows = [
        (row.step, seconds(row)) for row in walk.rows
        if row.step.op in (Op.INFER, Op.JOIN, Op.TRAIN)
    ]
    joins = [s for step, s in rows if step.op is Op.JOIN]
    trains = [s for step, s in rows if step.op is Op.TRAIN]
    if base_layer is None:
        read = io_cost.image_read_seconds(n, cluster)
    else:  # the pre-materialized base table is read from disk
        read = model_stats.materialized_bytes(base_layer) * n / (
            cluster.disk_bandwidth * cluster.num_nodes
        )
    # Terms whose rows are equal or linear in FLOPs are priced as one
    # product, which rounds the same whatever the row count.
    breakdown = {
        "read": read * walk.source_reads,
        "inference": infer_seconds(sum(row.flops for row in walk.rows)),
        "join": len(joins) * io_cost.broadcast_seconds(tstr, cluster)
        if broadcast else sum(joins),
        "train": sum(trains),
    }

    # -- spills and persistence-format conversion --------------------------
    serialized = setup.persistence == "serialized"
    spilled = 0
    if setup.storage_spills:
        # Serialized data drops the JVM-object blowup and compresses.
        scale = (
            model_stats.serialized_ratio / DEFAULT_ALPHA
            if serialized else 1.0
        )
        spilled = int(max(
            0.0,
            walk.peak_bytes * scale
            - setup.storage_cap_bytes * cluster.num_nodes,
        ))
    if spilled:
        breakdown["spill"] = io_cost.spill_seconds(
            spilled, cluster, reread_passes=walk.max_cached_reads
        )
    if serialized:
        converted = 2 * sum(
            workload.sizes.intermediate_table_bytes.values()
        )
        breakdown["serde"] = io_cost.serde_seconds(
            converted, cluster, setup.cpu
        )

    # -- scheduling overhead: the read, each join, each training run ------
    stages = 1 + len(joins) + len(trains)
    breakdown["overhead"] = io_cost.task_overhead_seconds(
        stages * setup.num_partitions, setup.num_partitions, cluster,
        setup.cpu,
    ) + stages * params.STAGE_OVERHEAD_S
    return rows, breakdown, spilled


def estimate_plan(workload, plan, setup, cluster, *, use_gpu=False,
                  train_iterations=None, label=None):
    """Estimate one run of ``plan`` on the workload; returns a
    :class:`RuntimeReport`.

    A ``workload.base_layer`` marks a pre-materialized starting layer
    (Appendix B): inference paths start there and its feature table is
    read from disk instead of the raw images.
    """
    label = label or setup.label
    crash = detect_crash(
        workload, plan, setup, cluster, use_gpu=use_gpu
    )  # same Eq. 10 arithmetic as the optimizer
    if crash is not None:
        return RuntimeReport(label=label, seconds=math.inf, crash=crash)
    _, breakdown, spilled = price_plan(
        workload, plan, setup, cluster, use_gpu=use_gpu,
        train_iterations=train_iterations,
    )
    return RuntimeReport(
        label=label,
        seconds=sum(breakdown.values()),
        breakdown=breakdown,
        spilled_bytes=spilled,
    )


def estimate_runtime(model_stats, layers, dataset_stats, plan, setup,
                     cluster, base_layer=None):
    """:func:`estimate_plan` with the workload given as loose
    statistics, for callers that hold no record."""
    workload = Workload(model_stats, layers, dataset_stats, base_layer)
    return estimate_plan(workload, plan, setup, cluster)


def estimate_premat_runtime(workload, plan, setup, cluster, use_gpu=False,
                            label=None):
    """The "Lazy-N with Pre-mat" pattern: materialize the lowest layer
    to disk first, then run the plan with that base layer as the
    inference source. Returns (premat_report, main_report)."""
    model_stats = workload.model_stats
    dataset_stats = workload.dataset_stats
    base = workload.layers[0]
    premat_breakdown = {
        "read": io_cost.image_read_seconds(
            dataset_stats.num_records, cluster
        ),
        "inference": inference_seconds(
            model_stats.layer_stats(base).flops_from_input
            * dataset_stats.num_records,
            model_stats.name, cluster, setup.cpu, use_gpu=use_gpu,
        ),
        "write": (
            model_stats.materialized_bytes(base) * dataset_stats.num_records
        ) / (cluster.disk_bandwidth * cluster.num_nodes),
    }
    premat = RuntimeReport(
        label=f"{label or setup.label}:premat",
        seconds=sum(premat_breakdown.values()),
        breakdown=premat_breakdown,
    )
    main = estimate_plan(
        replace(workload, base_layer=base), plan, setup, cluster,
        use_gpu=use_gpu, label=label,
    )
    return premat, main


def per_layer_breakdown(workload, setup, cluster, use_gpu=False):
    """Table 3's rows: per-layer inference (the Staged walk's ``INFER``
    rows) + first-LR-iteration seconds, plus the image-read row."""
    model_stats = workload.model_stats
    dataset_stats = workload.dataset_stats
    walk = walk_plan(workload, STAGED)
    n = dataset_stats.num_records
    rows = {}
    for row in walk.rows:
        if row.step.op is not Op.INFER:
            continue
        layer = row.step.layer
        rows[layer] = inference_seconds(
            row.flops * n, model_stats.name, cluster, setup.cpu,
            use_gpu=use_gpu,
        ) + io_cost.training_seconds(
            n, dataset_stats.num_structured_features
            + model_stats.layer_stats(layer).transfer_dim,
            setup.num_partitions, cluster, setup.cpu, iterations=1,
        )
    read = io_cost.image_read_seconds(n, cluster)
    return rows, read
