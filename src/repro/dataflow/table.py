"""DistributedTable: the engine's table abstraction.

A table is a list of :class:`Partition` objects placed on the simulated
workers of a :class:`ClusterContext` (once cached, their Storage keys).
Operators are eager (each returns a fully materialized new table), which
keeps memory accounting exact — as the paper's workload does anyway.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import DESERIALIZED, Partition, StoredPartition
from repro.dataflow.executor import run_partition_tasks
from repro.memory.model import Region


class DistributedTable:
    """A partitioned table with a designated key field. Partitions
    hold columnar blocks; row dicts appear only at the user boundary —
    :meth:`from_rows` in, :meth:`map_partitions` / :meth:`collect` /
    :meth:`to_rows_sorted` out.

    ``lineage`` records how the table was derived — ``(op, *parent
    table names)`` — mirroring RDD lineage: because operators are
    eager, a parent's partitions stay materialized, so a failed task
    over this table is recomputed by re-running the op's UDF on the
    parent partition (see ``repro.dataflow.executor``).
    """

    def __init__(self, context, partitions, name=None, key="id",
                 lineage=None):
        self.context = context
        self.partitions = list(partitions)
        self.name = name or context.next_table_name()
        self.key = key
        self.lineage = tuple(lineage) if lineage else ("source",)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, context, rows, num_partitions=None, name=None,
                  key="id"):
        """Build a table by chunking ``rows`` evenly into partitions."""
        rows = list(rows)
        if num_partitions is None:
            num_partitions = max(1, context.total_cores())
        num_partitions = max(1, min(int(num_partitions), max(1, len(rows))))
        chunks = [[] for _ in range(num_partitions)]
        for position, row in enumerate(rows):
            chunks[position % num_partitions].append(row)
        partitions = [
            Partition.from_rows(index, chunk)
            for index, chunk in enumerate(chunks)
        ]
        return cls(context, partitions, name=name, key=key)

    @classmethod
    def from_block(cls, context, block, num_partitions, name=None,
                   key="id"):
        """Build a table from one block, dealing row ``i`` to
        partition ``i % num_partitions`` as :meth:`from_rows` does —
        each partition a zero-copy strided view of ``block``
        (:meth:`ColumnarBlock.strided`)."""
        n = block.num_rows
        num_partitions = max(1, min(int(num_partitions), max(1, n)))
        partitions = [
            Partition.from_block(index, block.strided(index, num_partitions))
            for index in range(num_partitions)
        ]
        return cls(context, partitions, name=name, key=key)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_partitions(self):
        return len(self.partitions)

    def num_rows(self):
        return sum(len(p) for p in self.partitions)

    def memory_bytes(self):
        return sum(p.memory_bytes() for p in self.partitions)

    # ------------------------------------------------------------------
    # operators
    # ------------------------------------------------------------------
    def map_partitions(self, fn, name=None, user_alpha=1.0):
        """Apply ``fn(rows) -> rows`` per partition (a MapPartitions
        UDF): :meth:`map_blocks` with row views on the way in and the
        returned rows packed into a block on the way out."""
        return self.map_blocks(
            lambda block: ColumnarBlock.from_rows(fn(block.to_rows())),
            name=name, user_alpha=user_alpha,
        )

    def map_blocks(self, block_fn, name=None, user_alpha=1.0,
                   checkpoint=None, backend=None):
        """Apply ``block_fn(block) -> block`` per partition — the
        zero-copy batched path: the UDF reads the stored column arrays
        in place and returns a new
        :class:`~repro.dataflow.columnar.ColumnarBlock`.

        The output block of each concurrently running task is charged
        to the worker's User Memory — its exact buffer bytes times
        ``user_alpha``, the paper's JVM-object fudge factor — for the
        duration of the task wave.

        ``checkpoint=(store, stage_id[, carried])`` makes the stage
        durable: checksum-valid partitions already in the
        :class:`~repro.recovery.store.CheckpointStore` are restored
        (skipping their tasks entirely — the resume path), every
        freshly committed wave's outputs are persisted as they land,
        and the stage's superseded wave files go at the end.
        ``carried`` input columns, passed through by the UDF, are not
        stored: a restored
        partition takes them from its input partition. ``backend``
        places the stage (see
        :func:`~repro.dataflow.executor.run_partition_tasks`).
        """
        store, stage_id, *carried = checkpoint or (None, None)
        carried = tuple(carried[0]) if carried else ()

        def task(partition):
            return block_fn(partition.block())

        def charge(partition, out):
            return int(user_alpha * out.nbytes)

        recovery = self.context.recovery_log
        tracer = self.context.tracer
        with tracer.span(f"map:{name or self.name}", table=self.name) as sp:
            restored = {}
            if store is not None:
                restored = store.restore_stage(stage_id,
                                               recovery_log=recovery)
                if carried:
                    restored = self._reattach(restored, carried, store,
                                              stage_id)
                if restored and recovery is not None:
                    recovery.record(
                        "checkpoint_restore", stage=str(stage_id),
                        partitions=sorted(restored),
                    )
            pending = [
                p for p in self.partitions if p.index not in restored
            ]

            def on_commit(pairs):
                store.put_partition(stage_id, [
                    Partition.from_block(partition.index, out.select(
                        [c for c in out.column_names if c not in carried]))
                    for partition, out in pairs
                ])

            outputs = run_partition_tasks(
                self.context, pending, task, region=Region.USER,
                charge_fn=charge, what=f"map over {self.name}",
                on_commit=on_commit if store is not None else None,
                backend=backend,
            )
            computed = {
                p.index: Partition.from_block(p.index, out)
                for p, out in zip(pending, outputs)
            }
            partitions = [
                restored[p.index] if p.index in restored
                else computed[p.index]
                for p in self.partitions
            ]
            if store is not None:
                store.commit_stage(stage_id)
            result = DistributedTable(
                self.context, partitions, name=name, key=self.key,
                lineage=("map", self.name),
            )
            if tracer.enabled:
                sp.set("out_table", result.name)
                sp.add("rows_in", self.num_rows())
                sp.add("rows_out", result.num_rows())
                sp.add("bytes_out", result.memory_bytes())
                if store is not None:
                    sp.add("restored_partitions", len(restored))
        return result

    def _reattach(self, restored, carried, store, stage_id):
        """``restored`` with the ``carried`` columns put back, as
        zero-copy views of the input, where the UDF wrote them (key,
        carried, computed). A partition whose stored keys are not its
        input's, row for row, is rejected and left to recompute."""
        inputs = {p.index: p for p in self.partitions}
        kept = {}
        for index, partition in restored.items():
            block = partition.block()
            source = inputs[index].block() if index in inputs else None
            if source is None or block.num_rows != source.num_rows or (
                    block.num_rows and not np.array_equal(
                        block.column(self.key), source.column(self.key))):
                store.reject_partition(
                    stage_id, index, "stored keys are not the input's",
                    self.context.recovery_log)
                continue
            if block.num_rows:
                names = [self.key, *(c for c in carried
                                     if source.has_column(c))]
                columns = {name: source.column(name) for name in names}
                columns.update((name, block.column(name))
                               for name in block.column_names)
                partition = Partition.from_block(
                    index, ColumnarBlock(columns, block.num_rows))
            kept[index] = partition
        return kept

    def repartition_by_key(self, num_partitions, name=None):
        """Hash-partition rows on the key into ``num_partitions``
        shuffle blocks — one bucket assignment over each partition's
        key column and one fancy-index gather per bucket — metering
        the shuffled bytes on the context."""
        num_partitions = max(1, int(num_partitions))
        tracer = self.context.tracer
        with tracer.span(f"shuffle:{self.name}", table=self.name) as sp:
            per_bucket = [[] for _ in range(num_partitions)]
            shuffled = 0
            num_rows = 0
            for partition in self.partitions:
                block = partition.block()
                if block.num_rows == 0:
                    continue
                buckets = _shuffle_buckets(
                    block.column(self.key), num_partitions
                )
                shuffled += block.nbytes
                num_rows += block.num_rows
                for bucket in np.unique(buckets):
                    indices = np.nonzero(buckets == bucket)[0]
                    per_bucket[int(bucket)].append(block.take(indices))
            partitions = [
                Partition.from_block(index, ColumnarBlock.concat(blocks))
                for index, blocks in enumerate(per_bucket)
            ]
            _meter_shuffle(self.context, shuffled)
            sp.add("rows", num_rows)
            sp.add("shuffle_bytes", shuffled)
            sp.add("partitions", num_partitions)
            return DistributedTable(
                self.context, partitions, name=name, key=self.key,
                lineage=("shuffle", self.name),
            )

    def cache(self, persistence=DESERIALIZED):
        """Hand every partition to its worker's Storage region, keeping
        only its key: every later read is a ``StorageManager.get``."""
        tracer = self.context.tracer
        with tracer.span(f"cache:{self.name}", table=self.name,
                         persistence=persistence) as sp:
            charged = 0
            for position, partition in enumerate(self.partitions):
                stored = StoredPartition(
                    partition, (self.name, partition.index),
                    self.context.worker_for(partition.index).storage,
                )
                charged += stored.storage.cache(stored.key, partition,
                                                persistence)
                self.partitions[position] = stored
            if tracer.enabled:
                sp.add("bytes", charged)
                sp.add("partitions", self.num_partitions)
        return self

    def unpersist(self):
        """Drop every cached partition from the region that admitted
        it, even a worker blacklisted since ``cache()``."""
        tracer = self.context.tracer
        tracer.event("unpersist", table=self.name)
        for partition in self.partitions:
            if isinstance(partition, StoredPartition):
                partition.storage.evict(partition.key)
        return self

    def collect_block(self):
        """Gather all partitions at the driver as one block (charged
        to Driver memory — crash scenario (4) of Section 4.1)."""
        nbytes = self.memory_bytes()
        self.context.tracer.add("collect_bytes", nbytes)
        with self.context.driver.reserve(
            Region.DRIVER, nbytes, what=f"collect of {self.name}"
        ):
            return ColumnarBlock.concat(
                [partition.block() for partition in self.partitions]
            )

    def collect(self):
        """Row views of :meth:`collect_block`."""
        return self.collect_block().to_rows()

    def to_rows_sorted(self):
        """All rows ordered by key — handy for deterministic asserts."""
        return sorted(self.collect(), key=lambda row: row[self.key])

    def __repr__(self):
        return (
            f"<DistributedTable {self.name}: {self.num_rows()} rows in "
            f"{self.num_partitions} partitions>"
        )


def _shuffle_buckets(keys, num_partitions):
    """Shuffle bucket of every key, ``hash(key) % num_partitions``.
    A non-negative integer key column takes it as one vectorized modulo
    (``hash(i) == i`` there); any other key column hashes per key."""
    if isinstance(keys, np.ndarray) \
            and np.issubdtype(keys.dtype, np.integer) \
            and int(keys.min()) >= 0:
        return keys % num_partitions
    return np.fromiter(
        (hash(key) % num_partitions for key in keys),
        dtype=np.intp, count=len(keys),
    )


def _meter_shuffle(context, nbytes):
    context.shuffle_bytes_total += int(nbytes)
    context.metrics.counter("shuffle_bytes_total").inc(int(nbytes))
