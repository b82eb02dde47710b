"""Unit tests for Partition serialization formats (Section 4.2.3)."""

import numpy as np
import pytest

from repro.dataflow.partition import DESERIALIZED, SERIALIZED, Partition


def _rows(n=10):
    return [
        {"id": i, "x": np.full(50, float(i), dtype=np.float32)}
        for i in range(n)
    ]


def test_requires_rows_or_blob():
    with pytest.raises(ValueError):
        Partition(0)


def test_roundtrip_through_serialized_form():
    part = Partition.from_rows(0, _rows())
    blob = part.serialized_blob()
    restored = Partition(0, blob=blob)
    assert len(restored) == 10
    np.testing.assert_array_equal(restored.rows()[3]["x"], part.rows()[3]["x"])


def test_serialized_smaller_than_deserialized_for_redundant_data():
    """The redundancy the serialized format removes is the zeros ReLU
    leaves in feature tensors (Section 4.2.3 / Appendix A): they cost
    one bit each. Dense data is stored raw, a header larger at most."""
    rng = np.random.default_rng(0)
    relu = Partition.from_rows(0, [
        {"id": i, "x": np.maximum(rng.normal(size=1024), 0).astype(np.float32)}
        for i in range(50)
    ])
    assert (relu.memory_bytes(SERIALIZED)
            < 0.56 * relu.memory_bytes(DESERIALIZED))
    dense = Partition.from_rows(0, _rows(50))
    assert (dense.memory_bytes(DESERIALIZED)
            < dense.memory_bytes(SERIALIZED)
            <= dense.memory_bytes(DESERIALIZED) + 256)


def test_drop_rows_keeps_data_recoverable():
    part = Partition.from_rows(0, _rows())
    part.drop_rows()
    assert part.rows()[0]["id"] == 0
    assert part.deserialize_count == 1


def test_serialize_count_tracks_conversions():
    part = Partition.from_rows(0, _rows())
    part.serialized_blob()
    part.serialized_blob()  # cached, no second conversion
    assert part.serialize_count == 1


def test_memory_bytes_deserialized_exact_for_columnar():
    rows = _rows(4)
    part = Partition.from_rows(0, rows)
    # Exact buffer bytes: 4 int64 ids + 4 x (50,) float32 vectors.
    assert part.memory_bytes(DESERIALIZED) == 4 * 8 + 4 * 50 * 4


def test_exact_vs_heuristic_agreement_band():
    """The Appendix A per-record heuristic should stay within a small
    constant-per-row envelope of the exact columnar bytes: it adds an
    8-byte fixed slot per scalar field and an 8-byte variable-length
    header per tensor field that the columnar layout does not pay, so
    the heuristic over-reports by 16 bytes/row on an (id, tensor) row
    and never under-reports."""
    from repro.dataflow.record import estimate_rows_bytes

    for n in (1, 4, 64):
        rows = _rows(n)
        exact = Partition.from_rows(0, rows).memory_bytes(DESERIALIZED)
        heuristic = estimate_rows_bytes(rows)
        assert exact <= heuristic <= exact + 24 * n


def test_len(ctx=None):
    assert len(Partition.from_rows(0, _rows(7))) == 7
