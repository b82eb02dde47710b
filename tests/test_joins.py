"""Unit tests for the physical join operators (Section 4.2.3)."""

import tracemalloc

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import STAGED
from repro.data import foods_dataset
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.context import local_context
from repro.dataflow.joins import (
    _hash_join,
    broadcast_join,
    join,
    shuffle_hash_join,
)
from repro.dataflow.table import DistributedTable


def _tables(ctx, n=30, overlap=None):
    overlap = overlap if overlap is not None else n
    left = DistributedTable.from_rows(
        ctx, [{"id": i, "x": float(i)} for i in range(n)], 4, name="left"
    )
    right = DistributedTable.from_rows(
        ctx, [{"id": i, "y": float(-i)} for i in range(overlap)], 6,
        name="right",
    )
    return left, right


def _check_join_result(rows, expected_n):
    assert len(rows) == expected_n
    for row in rows:
        assert row["x"] == float(row["id"])
        assert row["y"] == float(-row["id"])


def test_shuffle_join_correctness(ctx):
    left, right = _tables(ctx)
    out = shuffle_hash_join(left, right)
    _check_join_result(out.to_rows_sorted(), 30)


def test_shuffle_join_inner_semantics(ctx):
    left, right = _tables(ctx, n=30, overlap=10)
    out = shuffle_hash_join(left, right)
    _check_join_result(out.to_rows_sorted(), 10)


def test_shuffle_join_respects_num_partitions(ctx):
    left, right = _tables(ctx)
    out = shuffle_hash_join(left, right, num_partitions=12)
    assert out.num_partitions == 12


def test_broadcast_join_correctness(ctx):
    left, right = _tables(ctx)
    out = broadcast_join(right, left)
    _check_join_result(out.to_rows_sorted(), 30)


def test_broadcast_equals_shuffle(ctx):
    left, right = _tables(ctx, n=25)
    shuffle_rows = shuffle_hash_join(left, right).to_rows_sorted()
    broadcast_rows = broadcast_join(right, left).to_rows_sorted()
    assert shuffle_rows == broadcast_rows


@pytest.mark.parametrize("keys", [
    [f"user-{i:02d}" for i in range(23)],   # object key column
    [i - 11 for i in range(23)],            # int column, some negative
], ids=["string", "negative-int"])
def test_joins_on_keys_that_are_not_non_negative_ints(ctx, keys):
    """Keys outside the vectorized non-negative-int branch bucket by
    per-key ``hash`` and (for non-integer columns) match through the
    dict index builder — same gather, same answer from both operators.
    The right side misses three keys and repeats one; it is a single
    partition so that "last duplicate wins" is defined by row order."""
    left = DistributedTable.from_rows(
        ctx, [{"id": key, "x": float(n)} for n, key in enumerate(keys)],
        4, name="left",
    )
    right_rows = [
        {"id": key, "y": float(-n)} for n, key in enumerate(keys[:-3])
    ]
    right_rows.append({"id": keys[5], "y": 99.0})
    right = DistributedTable.from_rows(ctx, right_rows, 1, name="right")
    expected = sorted(
        (
            {"id": key, "y": 99.0 if n == 5 else float(-n), "x": float(n)}
            for n, key in enumerate(keys[:-3])
        ),
        key=lambda row: row["id"],
    )
    shuffle_rows = shuffle_hash_join(
        left, right, num_partitions=5
    ).to_rows_sorted()
    broadcast_rows = broadcast_join(right, left).to_rows_sorted()
    assert shuffle_rows == broadcast_rows == expected
    for partition in left.repartition_by_key(5).partitions:
        if not len(partition):
            continue    # str hashes are seeded per process: a bucket
            # can come up empty, and an empty block has no columns
        for key in partition.block().column("id"):
            assert hash(key) % 5 == partition.index


def test_join_dispatcher(ctx):
    left, right = _tables(ctx, n=12)
    for how in ("shuffle", "broadcast"):
        rows = join(left, right, how=how).to_rows_sorted()
        _check_join_result(rows, 12)


def test_join_dispatcher_rejects_unknown(ctx):
    left, right = _tables(ctx)
    with pytest.raises(ValueError):
        join(left, right, how="sort-merge")


def test_key_mismatch_rejected(ctx):
    left, _ = _tables(ctx)
    other = DistributedTable.from_rows(
        ctx, [{"pk": 1, "z": 0.0}], 1, key="pk"
    )
    with pytest.raises(ValueError):
        shuffle_hash_join(left, other)
    with pytest.raises(ValueError):
        broadcast_join(left, other)


def test_left_fields_win_on_clash(ctx):
    left = DistributedTable.from_rows(
        ctx, [{"id": 1, "v": "left"}], 1, name="l"
    )
    right = DistributedTable.from_rows(
        ctx, [{"id": 1, "v": "right"}], 1, name="r"
    )
    rows = shuffle_hash_join(left, right).collect()
    # probe side is the bigger table; with equal sizes left builds,
    # right probes, and probe-side fields win.
    assert rows[0]["v"] in ("left", "right")


def test_join_with_array_payload(ctx):
    left = DistributedTable.from_rows(
        ctx,
        [{"id": i, "feat": np.arange(4.0) + i} for i in range(10)],
        4,
    )
    right = DistributedTable.from_rows(
        ctx, [{"id": i, "label": i % 2} for i in range(10)], 2
    )
    rows = join(left, right).to_rows_sorted()
    np.testing.assert_array_equal(rows[3]["feat"], np.arange(4.0) + 3)
    assert rows[3]["label"] == 1


def test_broadcast_charges_driver_and_user(ctx):
    left, right = _tables(ctx)
    peaks_before = [w.accountant.peak for w in ctx.workers]
    broadcast_join(right, left)
    from repro.memory.model import Region

    assert all(
        w.accountant.peak(Region.USER) > 0 for w in ctx.workers
    )


def test_broadcast_crash_leaves_nothing_charged_anywhere():
    """Crash scenario (3)'s broadcast half: the copy that does not fit
    a worker's User Memory was already added to ``used`` when the
    charge raised, so it must be released with the ones that fit."""
    from repro.dataflow.context import ClusterContext
    from repro.exceptions import UserMemoryExceeded
    from repro.memory.model import GB, MemoryBudget, Region

    budget = MemoryBudget(
        system_bytes=8 * GB, os_reserved_bytes=0, user_bytes=100,
        core_bytes=GB, storage_bytes=GB, dl_bytes=GB,
    )
    ctx = ClusterContext(budget, num_nodes=2, cores_per_node=4)
    left, right = _tables(ctx)
    with pytest.raises(UserMemoryExceeded):
        broadcast_join(right, left)
    for accountant in [ctx.driver, *(w.accountant for w in ctx.workers)]:
        assert all(accountant.used(region) == 0 for region in Region)


def test_shuffle_join_charges_core(ctx):
    from repro.memory.model import Region

    left, right = _tables(ctx)
    shuffle_hash_join(left, right)
    assert any(
        w.accountant.peak(Region.CORE) > 0 for w in ctx.workers
    )


# ---------------------------------------------------------------------
# Zero-copy probe side: a full match shares the probe block's columns
# ---------------------------------------------------------------------

INT_KEYS = [i - 5 for i in range(24)]
STR_KEYS = [f"user-{i:02d}" for i in range(24)]


def _image_tables(ctx, keys):
    """A big image table and a small structured one over ``keys``."""
    images = DistributedTable.from_rows(
        ctx,
        [
            {"id": key, "image": np.full((4, 4, 3), n, dtype=np.float32),
             "caption": f"image {n}"}
            for n, key in enumerate(keys)
        ],
        4, name="images",
    )
    structured = DistributedTable.from_rows(
        ctx, [{"id": key, "y": float(-n)} for n, key in enumerate(keys)],
        3, name="structured",
    )
    return images, structured


def _assert_aliases(joined, probe):
    """Every column of ``probe`` reaches ``joined`` without a copy:
    arrays as read-only views of the same memory, object columns as
    equal lists (never the list itself)."""
    assert joined.num_rows == probe.num_rows
    for name in probe.column_names:
        got, source = joined.column(name), probe.column(name)
        if probe.is_array(name):
            assert np.shares_memory(got, source), name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = got[0]
        else:
            assert got == source and got is not source, name


#: Both key kinds on both backends: a join stage runs in the driver
#: whatever the context's backend, so its output is never a pipe frame.
full_match_cases = pytest.mark.parametrize(
    "keys, backend",
    [(INT_KEYS, "serial"), (STR_KEYS, "serial"),
     (INT_KEYS, "process"), (STR_KEYS, "process")],
    ids=["int", "general", "int-process", "general-process"],
)


def _backend_ctx(backend):
    return local_context(num_nodes=2, cores_per_node=4, exec_backend=backend)


@full_match_cases
def test_broadcast_full_match_shares_the_probe_columns(keys, backend):
    images, structured = _image_tables(_backend_ctx(backend), keys)
    out = broadcast_join(structured, images)
    assert out.num_rows() == len(keys)
    for joined, probe in zip(out.partitions, images.partitions):
        _assert_aliases(joined.block(), probe.block())
        assert joined.memory_bytes() == (
            probe.memory_bytes() + 8 * len(probe)
        )


@full_match_cases
def test_shuffle_full_match_shares_the_probe_columns(keys, backend,
                                                     monkeypatch):
    shuffled = {}
    repartition = DistributedTable.repartition_by_key

    def spy(self, *args, **kwargs):
        shuffled[self.name] = repartition(self, *args, **kwargs)
        return shuffled[self.name]

    monkeypatch.setattr(DistributedTable, "repartition_by_key", spy)
    images, structured = _image_tables(_backend_ctx(backend), keys)
    out = shuffle_hash_join(images, structured, num_partitions=5)
    assert out.num_rows() == len(keys)
    probed = 0
    for joined, probe in zip(out.partitions, shuffled["images"].partitions):
        if len(probe):
            _assert_aliases(joined.block(), probe.block())
            probed += len(probe)
    assert probed == len(keys)


def _block(keys, prefix):
    return ColumnarBlock.from_rows([
        {"id": key, f"{prefix}_vec": np.full(3, n, dtype=np.float32),
         f"{prefix}_name": f"{prefix}{n}", "side": prefix}
        for n, key in enumerate(keys)
    ])


def _reference_join(probe, build):
    """What ``_hash_join`` must return, from gathers spelled out here:
    the last build row per key, build fields first, probe wins a
    clash. Also the matched probe positions."""
    last = {key: n for n, key in enumerate(build.column("id"))} \
        if build.num_rows else {}
    pairs = [
        (n, last[key]) for n, key in enumerate(probe.column("id"))
        if key in last
    ] if probe.num_rows else []
    probe_rows = probe.take([p for p, _ in pairs]).to_rows()
    build_rows = build.take([b for _, b in pairs]).to_rows()
    return [
        {**built, **probed} for probed, built in zip(probe_rows, build_rows)
    ], [p for p, _ in pairs]


def _same_rows(got, want):
    assert len(got) == len(want)
    for got_row, want_row in zip(got, want):
        assert list(got_row) == list(want_row)
        for name, value in want_row.items():
            np.testing.assert_array_equal(got_row[name], value)


JOIN_CASES = {
    # probe keys, build keys
    "partial": ([1, 2, 3, 4, 5, 6], [2, 4, 6]),
    "first-probe-row-unmatched": ([9, 1, 2, 3], [1, 2, 3]),
    "last-probe-row-unmatched": ([1, 2, 3, 9], [1, 2, 3]),
    "nothing-matches": ([1, 2, 3], [7, 8]),
    "duplicate-build-keys": ([1, 2, 3], [3, 1, 2, 1, 3]),
    "reordered-build": ([1, 2, 3, 4], [4, 2, 3, 1]),
    "reordered-general-keys": (["a", "b", "c"], ["c", "a", "b", "z"]),
    "partial-general-keys": (["a", "b", "c"], ["c", "a"]),
    "empty-probe": ([], [1, 2]),
    "empty-build": ([1, 2], []),
}


@pytest.mark.parametrize("case", sorted(JOIN_CASES))
def test_hash_join_equals_reference_gather(case):
    """Row for row what gathering both sides gives; the probe columns
    alias exactly when every probe row matched, the build columns
    never."""
    probe_keys, build_keys = JOIN_CASES[case]
    probe, build = _block(probe_keys, "p"), _block(build_keys, "b")
    out = _hash_join(probe, "id", build, "id")
    want, matched = _reference_join(probe, build)
    _same_rows(out.to_rows(), want)
    if not want:
        assert out.num_rows == 0
        return
    assert all(row["side"] == "p" for row in out.to_rows())
    assert not np.shares_memory(out.column("b_vec"), build.column("b_vec"))
    if len(matched) == probe.num_rows:
        _assert_aliases(out.select(probe.column_names), probe)
    else:
        gathered = out.column("p_vec")
        assert not np.shares_memory(gathered, probe.column("p_vec"))
        assert gathered.flags.writeable


def test_write_through_a_joined_image_column_raises(ctx):
    images, structured = _image_tables(ctx, INT_KEYS)
    before = [p.block().column("image").copy() for p in images.partitions]
    out = join(structured, images, how="broadcast")
    for partition in out.partitions:
        with pytest.raises(ValueError, match="read-only"):
            partition.block().column("image")[...] = -1.0
    for partition, image in zip(images.partitions, before):
        assert partition.block().column("image").flags.writeable
        np.testing.assert_array_equal(partition.block().column("image"), image)


def test_join_stage_of_a_staged_run_does_not_copy_the_images(monkeypatch):
    """The After-Join placement carries the image column through the
    join. An exact allocation count (numpy reports its buffers to
    tracemalloc) keeps the per-run copy of ``t_img`` from coming back:
    what the join may allocate is the structured side, far under a
    tenth of the images."""
    dataset = foods_dataset(num_records=256)
    config = VistaConfig(
        cpu=2, num_partitions=8, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="broadcast",
        persistence="deserialized",
    )
    executor = FeatureTransferExecutor(
        local_context(num_nodes=1, cores_per_node=4, cpu=2),
        build_model("alexnet", profile="mini"), dataset, ["fc7", "fc8"],
        config, downstream_fn=lambda features, labels: {},
    )
    allocated = []
    plain_join = FeatureTransferExecutor._join

    def traced_join(self, left, right):
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            joined = plain_join(self, left, right)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        allocated.append(peak - before)
        return joined

    monkeypatch.setattr(FeatureTransferExecutor, "_join", traced_join)
    assert STAGED.label == "staged/aj"
    executor.run(STAGED)
    image_bytes = sum(
        p.block().column("image").nbytes for p in executor.timg.partitions
    )
    assert image_bytes == 256 * 32 * 32 * 3 * 4
    assert len(allocated) == 1
    assert allocated[0] < 0.10 * image_bytes, allocated
