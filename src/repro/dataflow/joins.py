"""Physical join operators (Section 4.2.3).

Two distributed key-key equi-join implementations:

- **shuffle-hash join**: both tables are hash-partitioned on the key
  into the same number of shuffle blocks; co-located blocks are joined
  with a local hash join. The build side's hash table is charged to
  Core Memory per wave — an oversized partition here is crash
  scenario (3) of Section 4.1.
- **broadcast join**: the smaller table is collected at the driver
  (Driver memory — crash scenario (4)) and a full copy is charged to
  every worker's User Memory; the bigger table is then joined in place
  with no shuffle. Faster when the small side fits (Figure 10), but
  crashes as the structured side grows (Figure 10(3,4)).

Both operators run the same local hash join over columnar blocks: key
matching yields ``(probe_idx, build_idx)`` index arrays — one stable
argsort + ``searchsorted`` over integer key columns, a dict lookup for
any other key type — and the joined output is assembled one column at
a time: the build side with one fancy-index gather per column, the
probe side the same way on a partial match and *shared, not copied*
when every probe row matched (read-only views of the probe block's own
arrays). The probe side is the big one — the image table — so a full
key-key match moves only the structured columns — where the probe
blocks already are: both operators run on ``SERIAL_BACKEND``, in the
driver, since a join computes nothing that pays for piping its table.

Join output merges the two records; on a field-name clash the probe
side wins except for the key, which is identical by definition.
"""

from __future__ import annotations

import numpy as np

from repro.dataflow.backend import SERIAL_BACKEND
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import Partition
from repro.dataflow.executor import hold_on_live_workers, run_partition_tasks
from repro.memory.model import Region

SHUFFLE = "shuffle"
BROADCAST = "broadcast"


def _match_keys(probe_keys, build_keys):
    """``(probe_idx, build_idx)``: the positions of the probe keys that
    have a build-side match and the matching build positions, in probe
    order. Duplicate build keys resolve to the last occurrence
    (dict-insert semantics) on both branches."""
    if all(
        isinstance(keys, np.ndarray) and np.issubdtype(keys.dtype, np.integer)
        for keys in (probe_keys, build_keys)
    ):
        order = np.argsort(build_keys, kind="stable")
        sorted_keys = build_keys[order]
        # side="right" - 1 lands on the *last* duplicate.
        pos = np.searchsorted(sorted_keys, probe_keys, side="right") - 1
        safe = np.maximum(pos, 0)
        matched = (pos >= 0) & (sorted_keys[safe] == probe_keys)
        return np.nonzero(matched)[0], order[safe[matched]]
    last = {key: position for position, key in enumerate(build_keys)}
    pairs = np.array(
        [(position, last[key])
         for position, key in enumerate(probe_keys) if key in last],
        dtype=np.intp,
    ).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _alias(block):
    """``block``'s columns under a new block without moving a byte:
    array columns as read-only views (what
    :meth:`ColumnarBlock.from_buffer` hands the engine anyway), object
    columns as shallow list copies."""
    columns = {}
    for name in block.column_names:
        column = block.column(name)
        if block.is_array(name):
            column = column.view()
            column.flags.writeable = False
        else:
            column = list(column)
        columns[name] = column
    return ColumnarBlock(columns, block.num_rows)


def _hash_join(probe_block, probe_key, build_block, build_key):
    """Local hash join of two blocks: match the probe block's key
    column against the build block's and assemble the merged output one
    column at a time. Output row order follows the probe block.

    When every probe row matched — every key-key join Vista issues:
    each image has its structured row — the output *aliases* the probe
    block's columns (see :func:`_alias`) instead of gathering them, so
    the image column rides through the join without being copied.
    ``_match_keys`` returns strictly increasing probe positions, hence
    "all of them" is the identity and the length test is the identity
    test. Blocks are immutable, so sharing is unobservable except
    through ``np.shares_memory``; a write through the joined table's
    column raises. A partial match gathers as before, and the build
    side is always gathered (its order is the probe's, not its own).
    """
    if probe_block.num_rows == 0 or build_block.num_rows == 0:
        return ColumnarBlock.empty()
    probe_idx, build_idx = _match_keys(
        probe_block.column(probe_key), build_block.column(build_key)
    )
    if len(probe_idx) == 0:
        return ColumnarBlock.empty()
    if len(probe_idx) == probe_block.num_rows:
        probe_out = _alias(probe_block)
    else:
        probe_out = probe_block.take(probe_idx)
    build_out = build_block.select([
        name for name in build_block.column_names
        if not probe_block.has_column(name)
    ]).take(build_idx)
    # Merged field order: build columns first (probe values win on a
    # clash), then probe-only columns.
    columns = {}
    for name in build_block.column_names:
        source = probe_out if probe_block.has_column(name) else build_out
        columns[name] = source.column(name)
    for name in probe_block.column_names:
        columns.setdefault(name, probe_out.column(name))
    return ColumnarBlock(columns, len(probe_idx))


def shuffle_hash_join(left, right, num_partitions=None, name=None):
    """Distributed shuffle-hash join of two tables on their keys.

    ``num_partitions`` is the number of shuffle blocks (``np`` in
    Table 1B); defaults to the larger side's partition count.
    """
    from repro.dataflow.table import DistributedTable

    if left.key != right.key:
        raise ValueError(
            f"key mismatch: {left.key!r} vs {right.key!r}"
        )
    if num_partitions is None:
        num_partitions = max(left.num_partitions, right.num_partitions)
    tracer = left.context.tracer
    with tracer.span("join:shuffle", left=left.name, right=right.name,
                     strategy=SHUFFLE) as sp:
        left_shuffled = left.repartition_by_key(num_partitions)
        right_shuffled = right.repartition_by_key(num_partitions)

        # Build on the smaller side, probe with the larger.
        if left.memory_bytes() <= right.memory_bytes():
            build, probe = left_shuffled, right_shuffled
        else:
            build, probe = right_shuffled, left_shuffled
        build_parts = {p.index: p for p in build.partitions}

        def task(probe_partition):
            build_partition = build_parts.get(probe_partition.index)
            if build_partition is None:
                return ColumnarBlock.empty()
            return _hash_join(
                probe_partition.block(), probe.key,
                build_partition.block(), build.key,
            )

        def charge(probe_partition, joined):
            build_partition = build_parts.get(probe_partition.index)
            return (
                build_partition.memory_bytes()
                if build_partition is not None else 0
            )

        outputs = run_partition_tasks(
            left.context, probe.partitions, task, region=Region.CORE,
            charge_fn=charge, what="shuffle-hash join build",
            backend=SERIAL_BACKEND,
        )
        partitions = [
            Partition.from_block(p.index, out)
            for p, out in zip(probe.partitions, outputs)
        ]
        result = DistributedTable(
            left.context, partitions, name=name, key=left.key,
            lineage=("shuffle-join", left.name, right.name),
        )
        if tracer.enabled:
            sp.set("build_side", build.name)
            sp.add("rows_left", left.num_rows())
            sp.add("rows_right", right.num_rows())
            sp.add("rows_out", result.num_rows())
            sp.add("bytes_out", result.memory_bytes())
        return result


def broadcast_join(small, big, name=None):
    """Broadcast the ``small`` table and join ``big`` against it."""
    from repro.dataflow.table import DistributedTable

    if small.key != big.key:
        raise ValueError(f"key mismatch: {small.key!r} vs {big.key!r}")
    context = small.context
    tracer = context.tracer
    with tracer.span("join:broadcast", small=small.name, big=big.name,
                     strategy=BROADCAST) as sp:
        small_bytes = small.memory_bytes()
        # One block of the broadcast table serves every partition's
        # probe.
        small_block = small.collect_block()  # charges Driver memory
        sp.add("broadcast_bytes", small_bytes)
        context.metrics.counter("broadcast_bytes_total").inc(small_bytes)

        def task(partition):
            return _hash_join(
                partition.block(), big.key, small_block, small.key
            )

        def charge(partition, out):
            return out.nbytes

        # A full copy of the broadcast table lives in every live
        # worker's User Memory for the duration of the join.
        with hold_on_live_workers(context, Region.USER, small_bytes,
                                  "broadcast table copy"):
            outputs = run_partition_tasks(
                context, big.partitions, task, region=Region.USER,
                charge_fn=charge, what="broadcast join output",
                backend=SERIAL_BACKEND,
            )
        partitions = [
            Partition.from_block(p.index, out)
            for p, out in zip(big.partitions, outputs)
        ]
        result = DistributedTable(
            context, partitions, name=name, key=big.key,
            lineage=("broadcast-join", small.name, big.name),
        )
        if tracer.enabled:
            sp.add("rows_small", small.num_rows())
            sp.add("rows_big", big.num_rows())
            sp.add("rows_out", result.num_rows())
            sp.add("bytes_out", result.memory_bytes())
        return result


def join(left, right, how=SHUFFLE, num_partitions=None, name=None):
    """Dispatch on the physical join decision (Table 1B's ``join``)."""
    if how == SHUFFLE:
        return shuffle_hash_join(
            left, right, num_partitions=num_partitions, name=name
        )
    if how == BROADCAST:
        small, big = (
            (left, right)
            if left.memory_bytes() <= right.memory_bytes()
            else (right, left)
        )
        return broadcast_join(small, big, name=name)
    raise ValueError(f"unknown join operator {how!r}")
