"""Analytic per-region memory-peak prediction for an executable run.

What-if answers need a *prediction* of the waterline peaks a plan will
produce on the engine — before running it. Eqs. 10-11 bound the paper
-scale deployment, but the executable mini runs charge memory through
the engine's exact wave arithmetic, so this module replicates that
arithmetic symbolically: columnar-exact row sizes (int64 scalar
columns plus raw float32 tensor buffers, matching
:attr:`repro.dataflow.columnar.ColumnarBlock.nbytes`),
round-robin/hash partition placement,
``index % num_nodes`` worker assignment, and per-wave concurrent
charges of ``cpu`` tasks — walked through the
:func:`~repro.core.plans.compile_plan` step list the
:class:`~repro.core.executor.FeatureTransferExecutor` interprets for
each of the six logical plans.

Predictions are exact-or-over by construction (degenerate layouts
resolve exactly; persistence is priced deserialized, which upper-
bounds the serialized blob), so predicted/observed ratios land in the
documented band :data:`repro.costmodel.params.PEAK_PREDICTION_BAND`
(asserted for all six plans in ``tests/test_explain.py``).
"""

from __future__ import annotations

from repro.core.plans import SOURCE, Op, compile_plan
from repro.dataflow.joins import BROADCAST


def _source_counts(num_rows, num_partitions):
    """Exact per-partition row counts of ``DistributedTable.from_rows``
    (round-robin by position, partition count capped at the row
    count)."""
    np_ = max(1, min(int(num_partitions), max(1, num_rows)))
    return [
        (num_rows - index + np_ - 1) // np_ for index in range(np_)
    ]


def _hash_counts(num_rows, num_partitions):
    """Exact per-bucket row counts of ``repartition_by_key`` for the
    synthetic datasets' consecutive integer ids (``hash(i) == i``)."""
    np_ = max(1, int(num_partitions))
    return [
        (num_rows - bucket + np_ - 1) // np_ if bucket < num_rows else 0
        for bucket in range(np_)
    ]


def _max_wave(values, num_nodes, cpu):
    """Largest concurrent charge one worker holds: partitions land on
    worker ``index % num_nodes`` and run in waves of ``cpu``; all of a
    wave's charges are held together."""
    peak = 0
    for worker in range(max(1, num_nodes)):
        share = [
            value for index, value in enumerate(values)
            if index % num_nodes == worker
        ]
        for start in range(0, len(share), max(1, cpu)):
            peak = max(peak, sum(share[start:start + max(1, cpu)]))
    return peak


def _worker_totals(values, num_nodes):
    """Total bytes per worker for a fully resident table."""
    totals = [0] * max(1, num_nodes)
    for index, value in enumerate(values):
        totals[index % num_nodes] += value
    return totals


class _VirtualTable:
    """A table reduced to what the charge arithmetic needs: per-
    partition row counts and a uniform per-row byte size."""

    __slots__ = ("counts", "row_bytes")

    def __init__(self, counts, row_bytes):
        self.counts = list(counts)
        self.row_bytes = int(row_bytes)

    def total_bytes(self):
        return sum(self.counts) * self.row_bytes

    def values(self, row_bytes=None):
        per_row = self.row_bytes if row_bytes is None else row_bytes
        return [count * per_row for count in self.counts]


class _PlanSimulator:
    """Accumulates the charges the engine would make for each step of
    a compiled plan, and keeps the running per-region maxima."""

    def __init__(self, num_nodes, cpu, num_partitions, join,
                 user_alpha):
        self.num_nodes = num_nodes
        self.cpu = cpu
        self.num_partitions = num_partitions
        self.join_how = join
        self.user_alpha = user_alpha
        self.user = 0
        self.core = 0
        self.driver = 0
        self.storage_by_worker = [0] * max(1, num_nodes)

    def _user_wave(self, counts, out_row_bytes):
        values = [
            int(self.user_alpha * count * out_row_bytes)
            for count in counts
        ]
        self.user = max(
            self.user, _max_wave(values, self.num_nodes, self.cpu)
        )

    def map(self, table, out_row_bytes):
        """``map_partitions``: alpha-scaled output rows per wave."""
        self._user_wave(table.counts, out_row_bytes)
        return _VirtualTable(table.counts, out_row_bytes)

    def join(self, left, right, out_row_bytes):
        """The physical join ``join(left, right)`` — every row matches
        (both sides carry the full id set), so output partitioning
        follows the probe/big side."""
        num_rows = sum(left.counts)
        if self.join_how == BROADCAST:
            small, big = (
                (left, right)
                if left.total_bytes() <= right.total_bytes()
                else (right, left)
            )
            small_total = small.total_bytes()
            self.driver = max(self.driver, small_total)  # collect()
            out_values = [
                count * out_row_bytes for count in big.counts
            ]  # raw bytes, no alpha, held next to the broadcast copy
            self.user = max(
                self.user,
                small_total
                + _max_wave(out_values, self.num_nodes, self.cpu),
            )
            return _VirtualTable(big.counts, out_row_bytes)
        # Shuffle-hash: both sides rehashed to np buckets; build on the
        # smaller side, its co-located block charged to Core per probe.
        counts = _hash_counts(num_rows, self.num_partitions)
        build = left if left.total_bytes() <= right.total_bytes() else right
        build_values = [count * build.row_bytes for count in counts]
        self.core = max(
            self.core, _max_wave(build_values, self.num_nodes, self.cpu)
        )
        return _VirtualTable(counts, out_row_bytes)

    def cache(self, *tables):
        """Tables resident in Storage *simultaneously*; records the
        per-worker high-water mark."""
        combined = [0] * max(1, self.num_nodes)
        for table in tables:
            for worker, total in enumerate(
                _worker_totals(table.values(), self.num_nodes)
            ):
                combined[worker] += total
        self.storage_by_worker = [
            max(previous, current)
            for previous, current in zip(self.storage_by_worker, combined)
        ]

    def train(self, table, vec_row_bytes):
        """``_train``: vectorize map (alpha waves) then a driver-side
        collect of the full vector table."""
        vectors = self.map(table, vec_row_bytes)
        self.driver = max(self.driver, vectors.total_bytes())


def predict_workload_peaks(cnn, dataset, layers, config, plan,
                           num_nodes, cpu=None, model_mem_bytes=None,
                           user_alpha=2.0):
    """Predict the per-region per-worker occupancy peaks of running
    ``plan`` on the executable workload.

    Returns ``{"user", "core", "dl", "storage", "driver"}`` in bytes —
    directly comparable to the ``region_peak_bytes`` the executor
    reports and the ``mem_used_bytes`` waterline peaks the metrics
    registry records. Serialized persistence is priced at deserialized
    byte sizes: a VCB1 blob is at most its block's ``nbytes`` plus the
    header (~70 bytes per column), and smaller by the zeros of every
    column that goes sparse.
    """
    layers = list(layers)
    stats = cnn.stats
    num_rows = len(dataset)
    n_str = dataset.num_structured_features
    image_bytes = int(dataset.image_rows[0]["image"].nbytes)
    if cpu is None:
        cpu = config.cpu
    if model_mem_bytes is None:
        model_mem_bytes = stats.runtime_mem_bytes

    # Columnar-exact row bytes (see repro.dataflow.columnar): scalar
    # int columns are int64 (8 B/row), tensor columns their raw float32
    # buffers — no per-field slots or null bitmap.
    row_tstr = 16 + 4 * n_str                      # {id, features, label}
    row_timg = 8 + image_bytes                     # {id, image}

    sim = _PlanSimulator(
        num_nodes=num_nodes, cpu=cpu,
        num_partitions=config.num_partitions, join=config.join,
        user_alpha=user_alpha,
    )
    counts = _source_counts(num_rows, config.num_partitions)
    tstr = _VirtualTable(counts, row_tstr)
    tables = {SOURCE: _VirtualTable(counts, row_timg)}
    resident = []  # tables held in Storage at once, in CACHE order
    for step in compile_plan(plan, layers):
        table = tables[step.reads]
        if step.op is Op.JOIN:
            # The right operand's row plus T_str's features + label.
            tables[step.writes] = sim.join(
                tstr, table, table.row_bytes + row_tstr - 8
            )
        elif step.op is Op.INFER:
            # {id[, features, label], one tensor column per output}
            tables[step.writes] = sim.map(
                table, (row_tstr if step.keep else 8)
                + sum(
                    stats.materialized_bytes(layer)
                    for layer, _ in step.outputs
                ),
            )
        elif step.op is Op.CACHE:
            resident.append(table)
            sim.cache(*resident)
        elif step.op is Op.UNPERSIST:
            resident.remove(table)
        elif step.op is Op.PROJECT:  # {id, features, label, tensor}
            tables[step.writes] = sim.map(
                table, row_tstr + stats.materialized_bytes(step.layer)
            )
        else:                        # vectors: {id, label, x}
            sim.train(
                table, 16 + 4 * n_str + stats.transfer_bytes(step.layer)
            )

    return {
        "user": int(sim.user),
        "core": int(sim.core),
        "dl": int(cpu * model_mem_bytes) if layers else 0,
        "storage": int(max(sim.storage_by_worker, default=0)),
        "driver": int(sim.driver),
    }


def peak_ratios(predicted, observed):
    """Per-region predicted/observed ratios. Regions the run never
    touched (observed 0) are reported as ``None`` — nothing to
    calibrate against."""
    ratios = {}
    for region, prediction in predicted.items():
        measured = observed.get(region) or 0
        ratios[region] = (
            round(prediction / measured, 4) if measured > 0 else None
        )
    return ratios
