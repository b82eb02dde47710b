"""Unit tests for the physical join operators (Section 4.2.3)."""

import numpy as np
import pytest

from repro.dataflow.context import local_context
from repro.dataflow.joins import broadcast_join, join, shuffle_hash_join
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


def test_shuffle_join_charges_core(ctx):
    from repro.memory.model import Region

    left, right = _tables(ctx)
    shuffle_hash_join(left, right)
    assert any(
        w.accountant.peak(Region.CORE) > 0 for w in ctx.workers
    )
