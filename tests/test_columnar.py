"""Columnar partition layout: round-trip properties, wire format,
exact sizing, and the ragged/TensorList batching path.

Covers the zero-copy contract of ``repro.dataflow.columnar``:
``column()`` returns stored buffers, row views alias them, and the
single-buffer wire format reconstructs bit-identical values for every
supported dtype — including object columns (ragged images, strings,
TensorLists) and empty partitions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.columnar import (
    MAGIC,
    ColumnarBlock,
    NotColumnar,
    is_columnar_buffer,
    pack_column,
)
from repro.dataflow.partition import DESERIALIZED, SERIALIZED, Partition
from repro.tensor.tensorlist import TensorList


def _assert_rows_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert set(got) == set(want)
        for name, value in want.items():
            if isinstance(value, TensorList):
                assert isinstance(got[name], TensorList)
                assert len(got[name]) == len(value)
                for a, b in zip(got[name], value):
                    np.testing.assert_array_equal(a, b)
            elif isinstance(value, np.ndarray):
                np.testing.assert_array_equal(got[name], value)
                assert got[name].dtype == value.dtype
            else:
                assert got[name] == value


# ----------------------------------------------------------------------
# round-trip properties over all supported dtypes
# ----------------------------------------------------------------------
_dtype_strategy = st.sampled_from(
    [np.float32, np.float64, np.int32, np.int64, np.uint8]
)


@st.composite
def _uniform_rows(draw):
    """Uniform-schema rows with a scalar int, a float, a bool, a
    string, and one tensor column of a drawn dtype/shape."""
    n = draw(st.integers(min_value=0, max_value=6))
    dtype = draw(_dtype_strategy)
    shape = draw(
        st.sampled_from([(3,), (2, 2), (4, 4, 3), (1,)])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    rows = []
    for i in range(n):
        tensor = (rng.normal(size=shape) * 10).astype(dtype)
        rows.append({
            "id": i,
            "score": float(i) / 2.0,
            "flag": bool(i % 2),
            "tag": f"tag-{i}",
            "x": tensor,
        })
    return rows


@settings(max_examples=40, deadline=None)
@given(rows=_uniform_rows())
def test_columnar_row_roundtrip_property(rows):
    block = ColumnarBlock.from_rows(rows)
    assert block.num_rows == len(rows)
    _assert_rows_equal(block.to_rows(), rows)
    # wire round-trip preserves values and dtypes bit-exactly
    restored = ColumnarBlock.from_buffer(block.to_buffer())
    _assert_rows_equal(restored.to_rows(), rows)


@settings(max_examples=25, deadline=None)
@given(rows=_uniform_rows(), seed=st.integers(0, 2**16))
def test_take_concat_roundtrip_property(rows, seed):
    block = ColumnarBlock.from_rows(rows)
    if block.num_rows == 0:
        assert ColumnarBlock.concat([block]).num_rows == 0
        return
    rng = np.random.default_rng(seed)
    indices = rng.permutation(block.num_rows)
    shuffled = block.take(indices)
    _assert_rows_equal(
        shuffled.to_rows(), [rows[i] for i in indices]
    )
    halves = [
        block.take(np.arange(0, block.num_rows, 2)),
        block.take(np.arange(1, block.num_rows, 2)),
    ]
    merged = ColumnarBlock.concat(halves)
    expected = [rows[i] for i in range(0, len(rows), 2)]
    expected += [rows[i] for i in range(1, len(rows), 2)]
    _assert_rows_equal(merged.to_rows(), expected)


def test_empty_partition_roundtrip():
    part = Partition.from_rows(0, [])
    assert len(part) == 0
    blob = part.serialized_blob()
    restored = Partition(0, blob=blob)
    assert len(restored) == 0
    assert restored.rows() == []


def test_ragged_images_stay_object_column_and_roundtrip():
    rng = np.random.default_rng(0)
    rows = [
        {"id": i,
         "image": rng.normal(size=(4 + i, 4, 3)).astype(np.float32)}
        for i in range(4)
    ]
    block = ColumnarBlock.from_rows(rows)
    assert not block.is_array("image")
    assert block.is_array("id")
    _assert_rows_equal(block.to_rows(), rows)
    restored = ColumnarBlock.from_buffer(block.to_buffer())
    _assert_rows_equal(restored.to_rows(), rows)


def test_tensorlist_column_roundtrips_through_partition():
    members = [np.ones((2, 2), dtype=np.float32),
               np.zeros((3,), dtype=np.float32)]
    rows = [{"id": i, "tensors": TensorList(list(members))}
            for i in range(3)]
    part = Partition.from_rows(0, rows)
    assert not part.block().is_array("tensors")
    restored = Partition(0, blob=part.serialized_blob())
    _assert_rows_equal(restored.rows(), rows)


def test_mixed_schema_rows_are_rejected():
    """One layout: rows that do not share a schema are refused at
    every row-dict entry point, never silently stored another way."""
    from repro.dataflow.context import local_context
    from repro.dataflow.table import DistributedTable

    rows = [{"id": 0, "a": 1}, {"id": 1, "b": 2}]
    with pytest.raises(NotColumnar):
        ColumnarBlock.from_rows(rows)
    with pytest.raises(NotColumnar):
        Partition.from_rows(0, rows)
    ctx = local_context(num_nodes=1, cores_per_node=2, cpu=1)
    with pytest.raises(NotColumnar):
        DistributedTable.from_rows(ctx, rows, num_partitions=1)
    with pytest.raises(NotColumnar):
        ColumnarBlock.from_rows([("id", 0)])


def test_partition_blob_must_be_vcb1():
    import pickle
    import zlib

    blob = zlib.compress(pickle.dumps([{"id": 0}]))
    with pytest.raises(ValueError, match="bad magic"):
        Partition(0, blob=blob).block()


# ----------------------------------------------------------------------
# zero-copy contract
# ----------------------------------------------------------------------
def test_column_and_row_views_alias_stored_buffers():
    rows = [
        {"id": i, "x": np.full((2, 2), float(i), dtype=np.float32)}
        for i in range(4)
    ]
    block = ColumnarBlock.from_rows(rows)
    column = block.column("x")
    assert block.column("x") is column  # the stored array itself
    views = block.to_rows()
    for i, row in enumerate(views):
        assert row["x"].base is column  # row views alias the buffer
        np.testing.assert_array_equal(row["x"], rows[i]["x"])


def test_from_buffer_arrays_are_zero_copy_views():
    rows = [{"id": i, "x": np.arange(6, dtype=np.float32)}
            for i in range(3)]
    data = ColumnarBlock.from_rows(rows).to_buffer()
    restored = ColumnarBlock.from_buffer(data)
    column = restored.column("x")
    assert column.base is not None  # frombuffer view, not a copy
    assert not column.flags.writeable  # read-only per the contract


# ----------------------------------------------------------------------
# wire format
# ----------------------------------------------------------------------
def test_wire_format_layout_and_magic():
    rows = [{"id": i, "x": np.arange(4, dtype=np.float32)}
            for i in range(2)]
    data = ColumnarBlock.from_rows(rows).to_buffer()
    assert data[:4] == MAGIC
    assert is_columnar_buffer(data)
    header_len = int.from_bytes(data[4:8], "little")
    header = _header(data)
    assert header["n"] == 2
    body_len = sum(col["len"] for col in header["cols"])
    assert len(data) == 8 + header_len + body_len


def test_wire_format_is_deterministic_for_array_blocks():
    def encode():
        rows = [{"id": i, "x": np.arange(8, dtype=np.float32) + i}
                for i in range(4)]
        return ColumnarBlock.from_rows(rows).to_buffer()

    assert encode() == encode()


def test_wire_format_golden_bytes():
    """The VCB1 encoding pinned byte for byte (the gate the retired
    ``bench_dataflow.py`` carried as ``serialized_bytes_per_row``): one
    fixed block with an int, a float, a tensor and an object column.
    Values come from integer ranges and one IEEE division, and the
    object column holds short strings, so the bytes depend on no RNG
    stream and no numpy pickle layout."""
    import hashlib

    n = 5
    block = ColumnarBlock(
        {
            "id": np.arange(n, dtype=np.int64) * 3 - 4,
            "score": np.arange(n, dtype=np.float64) / 7.0,
            "tensor": (
                np.arange(n * 2 * 3, dtype=np.float32) / 11.0
            ).reshape(n, 2, 3),
            "tag": [f"r{i}" for i in range(n)],
        },
        n,
    )
    data = block.to_buffer()
    assert len(data) == 509
    assert hashlib.sha256(data).hexdigest() == (
        "0483118b42dec08b78a712d661f9eb7e8dc4c0143260490bfd74ddce0db7da29"
    )
    restored = ColumnarBlock.from_buffer(data)
    assert restored.column("tag") == block.column("tag")
    np.testing.assert_array_equal(
        restored.column("tensor"), block.column("tensor")
    )


def test_wire_format_golden_bytes_sparse_column():
    """A second pinned block, with the column kind ReLU feature tensors
    take: 3 of every 7 elements non-zero, so the tensor is written as a
    15-byte bitmap plus 51 float32 values instead of 480 raw bytes."""
    import hashlib

    n = 5
    tensor = (
        np.maximum(np.arange(n * 4 * 6) % 7 - 3, 0).astype(np.float32) / 11.0
    ).reshape(n, 4, 6)
    block = ColumnarBlock({"id": np.arange(n, dtype=np.int64), "t": tensor}, n)
    data = block.to_buffer()
    header = _header(data)
    assert [col["kind"] for col in header["cols"]] == ["array", "sparse"]
    assert header["cols"][1]["len"] == 15 + 51 * 4
    assert len(data) == 416
    assert hashlib.sha256(data).hexdigest() == (
        "167c9fa78df41285fbeff04831b68fc6676cf97b279c101193c52b0efcdf4dff"
    )
    np.testing.assert_array_equal(
        ColumnarBlock.from_buffer(data).column("t"), tensor
    )


#: Generous bound on a block's JSON header + magic + length word: ~70
#: bytes per column (tests here use at most four short-named columns).
_HEADER_BOUND = 400


def _header(data):
    import json

    return json.loads(bytes(data[8:8 + int.from_bytes(data[4:8], "little")]))


def _bits(array):
    """The array's bytes as unsigned integers: the only comparison
    under which -0.0 != 0.0 and a NaN equals itself, payload included."""
    array = np.ascontiguousarray(array)
    return array.view(f"u{array.itemsize}")


@st.composite
def _wire_blocks(draw):
    """Blocks of one to three columns over every dtype the engine
    stores, with 0 rows and 0-size tensors, all-zero / no-zero /
    ReLU-like values, IEEE specials, and non-contiguous or read-only
    inputs."""
    n = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = {}
    for position in range(draw(st.integers(1, 3))):
        dtype = draw(st.sampled_from(["f2", "f4", "f8", "i8", "bool", "object"]))
        if dtype == "object":
            columns[f"c{position}"] = [
                None if i % 3 == 0 else f"s{i}" for i in range(n)
            ]
            continue
        shape = (n, *draw(st.sampled_from([(), (5,), (0,), (3, 2, 4)])))
        values = rng.normal(size=shape) * 4
        pattern = draw(st.sampled_from(["zeros", "dense", "relu"]))
        if pattern == "zeros":
            values[...] = 0
        elif pattern == "relu":
            values = np.maximum(values, 0)
        column = values.astype(dtype)
        if column.dtype.kind == "f" and column.size and draw(st.booleans()):
            flat = column.reshape(-1)
            for special in (-0.0, np.nan, np.inf, -np.inf):
                flat[draw(st.integers(0, flat.size - 1))] = special
            # a NaN with every payload bit set
            _bits(flat)[draw(st.integers(0, flat.size - 1))] = (
                np.iinfo(_bits(flat).dtype).max >> 1
            )
        layout = draw(st.sampled_from(["contiguous", "strided", "readonly"]))
        if layout == "strided":
            column = np.repeat(column, 2, axis=0)[::2]
        elif layout == "readonly":
            column.flags.writeable = False
        columns[f"c{position}"] = column
    return ColumnarBlock(columns, n)


@settings(max_examples=150, deadline=None)
@given(block=_wire_blocks())
def test_wire_format_roundtrip_property(block):
    data = block.to_buffer()
    assert data == block.to_buffer()        # deterministic
    restored = ColumnarBlock.from_buffer(data)
    assert restored.num_rows == block.num_rows
    assert restored.column_names == block.column_names
    array_bytes = 0
    for name in block.column_names:
        want, got = block.column(name), restored.column(name)
        if not block.is_array(name):
            assert got == want
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(_bits(got), _bits(want))
        assert not got.flags.writeable
        array_bytes += want.nbytes
    # never larger than the raw buffers plus the header
    spent = sum(
        col["len"] for col in _header(data)["cols"] if col["kind"] != "object"
    )
    assert spent <= array_bytes
    # the layout of the input is not part of the value
    compact = ColumnarBlock(
        {
            name: np.array(block.column(name))
            if block.is_array(name) else block.column(name)
            for name in block.column_names
        },
        block.num_rows,
    )
    assert compact.to_buffer() == data


@pytest.mark.parametrize("dtype", ["f2", "f4", "f8"])
@pytest.mark.parametrize("nnz_ratio", [0.0, 0.13, 0.36, 0.5, 0.7, 0.8, 1.0])
def test_sparse_column_size_contract(dtype, nnz_ratio):
    """A float column at non-zero ratio p costs ``p + 1/(8 * itemsize)``
    of its raw bytes — one bit per element plus the non-zero elements —
    whenever that is at most 3/4; otherwise it is stored raw, byte for
    byte. The rule is arithmetic on the column's own nnz."""
    size = 8192
    itemsize = np.dtype(dtype).itemsize
    nnz = int(nnz_ratio * size)
    flat = np.zeros(size, dtype=dtype)
    positions = np.random.default_rng(0).permutation(size)[:nnz]
    flat[positions] = np.arange(1, nnz + 1) / 7.0
    column = flat.reshape(64, 128)
    data = ColumnarBlock({"x": column}, 64).to_buffer()
    (spec,) = _header(data)["cols"]
    sparse_len = size // 8 + nnz * itemsize
    if 4 * sparse_len <= 3 * column.nbytes:
        assert spec["kind"] == "sparse" and spec["len"] == sparse_len
        assert spec["len"] / column.nbytes == pytest.approx(
            nnz_ratio + 1 / (8 * itemsize), abs=1e-3
        )
    else:
        assert spec["kind"] == "array"
        assert data[-column.nbytes:] == column.tobytes()
    assert len(data) <= column.nbytes + _HEADER_BOUND
    assert np.array_equal(
        _bits(ColumnarBlock.from_buffer(data).column("x")), _bits(column)
    )


def test_non_float_columns_are_never_sparse():
    n = 64
    block = ColumnarBlock(
        {"i": np.zeros((n, 32), dtype=np.int64),
         "b": np.zeros((n, 32), dtype=np.bool_),
         "f": np.zeros((n, 32), dtype=np.float32)},
        n,
    )
    kinds = {c["name"]: c["kind"] for c in _header(block.to_buffer())["cols"]}
    assert kinds == {"i": "array", "b": "array", "f": "sparse"}


# ----------------------------------------------------------------------
# from_buffer validates before it builds
# ----------------------------------------------------------------------
def _reheader(data, edit):
    """``data`` with its JSON header passed through ``edit``."""
    import json

    old_len = int.from_bytes(data[4:8], "little")
    header = _header(data)
    edit(header)
    encoded = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (MAGIC + len(encoded).to_bytes(4, "little") + encoded
            + data[8 + old_len:])


def _relu_block(n=16):
    rng = np.random.default_rng(3)
    return ColumnarBlock(
        {"id": np.arange(n),
         "t": np.maximum(rng.normal(size=(n, 40)), 0).astype(np.float32),
         "tag": [f"r{i}" for i in range(n)]},
        n,
    )


def test_unknown_column_kind_raises_instead_of_unpickling():
    import pickle

    class Boom:
        def __reduce__(self):
            return (pytest.fail, ("from_buffer unpickled an unknown kind",))

    payload = pickle.dumps(Boom())
    data = ColumnarBlock({"id": np.arange(2)}, 2).to_buffer()
    forged = _reheader(data, lambda h: h["cols"].append(
        {"kind": "pickle", "len": len(payload), "name": "evil"}
    )) + payload
    with pytest.raises(ValueError, match="unknown kind 'pickle'"):
        ColumnarBlock.from_buffer(forged)


@pytest.mark.parametrize("cut", [1, 7, 100])
def test_truncated_or_overlong_buffer_raises_before_any_column(cut):
    data = _relu_block().to_buffer()
    for damaged in (data[:-cut], data + bytes(cut)):
        with pytest.raises(ValueError, match="not the length its header says"):
            ColumnarBlock.from_buffer(damaged)
    with pytest.raises(ValueError):
        ColumnarBlock.from_buffer(data[:8 + cut])    # inside the header


def test_sparse_popcount_must_match_value_count():
    data = bytearray(_relu_block().to_buffer())
    header = _header(data)
    assert header["cols"][1]["kind"] == "sparse"
    bitmap_at = len(data) - sum(col["len"] for col in header["cols"][1:])
    data[bitmap_at] ^= 0x01       # one element more, or one fewer
    with pytest.raises(ValueError, match="sparse column 't'"):
        ColumnarBlock.from_buffer(bytes(data))


def test_single_buffer_encode_smaller_than_n_pickles():
    import pickle

    rng = np.random.default_rng(1)
    rows = [
        {"id": i, "x": rng.normal(size=50).astype(np.float32)}
        for i in range(64)
    ]
    single = len(ColumnarBlock.from_rows(rows).to_buffer())
    n_pickles = sum(
        len(pickle.dumps(row, protocol=pickle.HIGHEST_PROTOCOL))
        for row in rows
    )
    assert single < n_pickles


# ----------------------------------------------------------------------
# sizing
# ----------------------------------------------------------------------
def test_nbytes_is_exact_buffer_sum():
    rows = [
        {"id": i, "x": np.zeros((3, 3), dtype=np.float64)}
        for i in range(5)
    ]
    block = ColumnarBlock.from_rows(rows)
    assert block.nbytes == 5 * 8 + 5 * 9 * 8


def test_serialized_vs_deserialized_partition_sizes():
    """What the serialized form saves is ReLU's zeros (Appendix A), not
    entropy in mantissas: a half-zero tensor column costs its non-zero
    elements plus one bit per element, a dense one is stored raw and
    costs the header on top."""
    rng = np.random.default_rng(2)
    dense = [
        {"id": i, "x": rng.normal(size=2000).astype(np.float32)}
        for i in range(32)
    ]
    relu = [{"id": r["id"], "x": np.maximum(r["x"], 0)} for r in dense]
    part = Partition.from_rows(0, relu)
    ratio = part.memory_bytes(SERIALIZED) / part.memory_bytes(DESERIALIZED)
    assert 0.50 < ratio < 0.56          # nnz 0.5 + 1/32, header is noise
    part = Partition.from_rows(0, dense)
    extra = part.memory_bytes(SERIALIZED) - part.memory_bytes(DESERIALIZED)
    assert 0 < extra <= _HEADER_BOUND


def test_pack_column_classification():
    assert isinstance(pack_column([1, 2, 3]), np.ndarray)
    assert pack_column([1, 2, 3]).dtype == np.int64
    assert isinstance(pack_column(["a", "b"]), list)
    stacked = pack_column([np.zeros((2,), dtype=np.float32)] * 3)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (3, 2)
    ragged = pack_column([np.zeros((2,)), np.zeros((3,))])
    assert isinstance(ragged, list)


# ----------------------------------------------------------------------
# ragged batching: one shape-grouped path, no per-tensor kernel
# ----------------------------------------------------------------------
def _ragged_executor(dataset, metrics=None, num_partitions=2,
                     layers=("fc7",), downstream_fn=None):
    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.dataflow.context import local_context

    model = build_model("alexnet", profile="mini")
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    return FeatureTransferExecutor(
        ctx, model, dataset, list(layers), VistaConfig(
            cpu=2, num_partitions=num_partitions,
            mem_storage_bytes=10**9, mem_user_bytes=10**9,
            mem_dl_bytes=10**9, join="shuffle",
            persistence="deserialized",
        ),
        downstream_fn=downstream_fn or (lambda f, l: {}), metrics=metrics,
    )


def _refuse_per_tensor_kernels(monkeypatch):
    """Make the per-tensor kernels raise wherever the engine could reach
    them: ``CNN.partial_forward``, and ``pool_feature_tensor`` in the
    pooling module and (were it imported again) the executor's."""
    from repro.cnn.network import CNN
    from repro.core import executor
    from repro.features import pooling

    def refuse(*args, **kwargs):
        raise AssertionError("the engine called a per-tensor kernel")

    monkeypatch.setattr(CNN, "partial_forward", refuse)
    monkeypatch.setattr(pooling, "pool_feature_tensor", refuse)
    monkeypatch.setattr(executor, "pool_feature_tensor", refuse,
                        raising=False)


def _per_tensor_oracle(model, dataset, layer):
    """Each record's train vector from the per-tensor kernels: its
    structured features, then every image's pooled ``layer`` output in
    member order."""
    from repro.features.pooling import pool_feature_tensor

    rows = []
    for features, cell in zip(dataset.t_str.column("features"),
                              dataset.t_img.column("image")):
        members = cell if isinstance(cell, TensorList) else [cell]
        rows.append(np.concatenate([features] + [
            pool_feature_tensor(model.partial_forward(image, 0, layer))
            for image in members
        ]).astype(np.float32))
    return np.stack(rows)


def test_tensorlist_dataset_batches_without_fallbacks(monkeypatch):
    """TensorList rows alone in their partitions — one-tensor shape
    groups, one row a plain tensor — run Staged and Lazy with the
    per-tensor kernels refusing every call, and train on exactly the
    per-tensor oracle's vectors."""
    import dataclasses

    from repro.core.plans import LAZY, STAGED
    from repro.data.synthetic import generate_dataset

    base = generate_dataset(
        "ragged", num_records=5, num_structured_features=16,
        images_per_record=2, seed=9,
    )
    # One image each: records 1-3 sit alone in partitions 1-3, and
    # partition 0 holds record 0's TensorList beside record 4's tensor.
    images = [TensorList(list(cell)[:1])
              for cell in base.t_img.column("image")]
    images[4] = images[4][0]
    ids = base.t_img.column("id")
    dataset = dataclasses.replace(
        base, t_img=ColumnarBlock({"id": ids, "image": images}, len(ids)),
    )
    layers = ("fc7", "fc8")
    executor = _ragged_executor(dataset, num_partitions=4, layers=layers)
    oracle = {layer: _per_tensor_oracle(executor.cnn, dataset, layer)
              for layer in layers}
    _refuse_per_tensor_kernels(monkeypatch)
    for plan in (STAGED, LAZY):
        result = _ragged_executor(
            dataset, num_partitions=4, layers=layers,
            downstream_fn=lambda f, l: {"matrix": f.copy()},
        ).run(plan)
        for layer in layers:
            np.testing.assert_array_equal(
                result.layer_results[layer].downstream["matrix"],
                oracle[layer],
            )


def test_train_vector_of_a_tensorlist_row_concatenates_its_members():
    """TRAIN pools a TensorList row member by member through the
    batched kernel and concatenates the vectors in member order: the
    per-member ``pool_feature_tensor`` oracle, bit for bit."""
    from repro.core.plans import STAGED
    from repro.data.synthetic import generate_dataset

    dataset = generate_dataset(
        "multi", num_records=6, num_structured_features=16,
        images_per_record=3, seed=5,
    )
    executor = _ragged_executor(
        dataset, num_partitions=2,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    oracle = _per_tensor_oracle(executor.cnn, dataset, "fc7")
    result = executor.run(STAGED)
    np.testing.assert_array_equal(
        result.layer_results["fc7"].downstream["matrix"], oracle
    )


def test_lone_shape_tensor_runs_the_batched_path(monkeypatch):
    """An object image column whose partitions hold one tensor each — a
    shape with nothing to batch against — runs the batched kernels as a
    stack of one, and trains on the per-tensor oracle's vectors bit for
    bit."""
    import dataclasses

    from repro.core.plans import STAGED
    from repro.data import foods_dataset

    base = foods_dataset(num_records=3)
    ids = base.t_img.column("id")
    images = list(base.t_img.column("image"))
    dataset = dataclasses.replace(
        base, t_img=ColumnarBlock({"id": ids, "image": images}, len(ids)),
    )
    executor = _ragged_executor(
        dataset, num_partitions=3,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    oracle = _per_tensor_oracle(executor.cnn, dataset, "fc7")
    _refuse_per_tensor_kernels(monkeypatch)
    result = executor.run(STAGED)
    np.testing.assert_array_equal(
        result.layer_results["fc7"].downstream["matrix"], oracle
    )


def test_infer_ragged_matches_per_tensor_path(monkeypatch):
    """Shape-grouped batched inference is bit-identical to running each
    tensor through the per-tensor kernel, TensorLists included: rows
    whose members repeat other rows' images, inferred from the image
    and then from the TensorList tensor column, under Staged and
    Lazy."""
    import dataclasses

    from repro.core.plans import LAZY, STAGED
    from repro.data.synthetic import generate_dataset

    base = generate_dataset(
        "multi", num_records=6, num_structured_features=16,
        images_per_record=2, seed=3,
    )
    cells = base.t_img.column("image")
    images = [TensorList([cells[i][0].copy(), cells[(i + 1) % 6][0].copy()])
              for i in range(6)]
    ids = base.t_img.column("id")
    dataset = dataclasses.replace(
        base, t_img=ColumnarBlock({"id": ids, "image": images}, len(ids)),
    )
    layers = ("fc7", "fc8")
    executor = _ragged_executor(
        dataset, num_partitions=2, layers=layers,
        downstream_fn=lambda f, l: {"matrix": f.copy()},
    )
    oracle = {layer: _per_tensor_oracle(executor.cnn, dataset, layer)
              for layer in layers}
    _refuse_per_tensor_kernels(monkeypatch)
    for plan in (STAGED, LAZY):
        result = executor.run(plan)
        for layer in layers:
            np.testing.assert_array_equal(
                result.layer_results[layer].downstream["matrix"],
                oracle[layer],
            )
