"""The executor reads T_str and T_img as zero-copy strided slices of the
dataset's columns.

``DistributedTable.from_block`` deals row ``i`` to partition
``i % np`` as ``column[i::np]`` views. Each partition must hold the
same rows, in the same order, as packing the dataset's row dicts with
``from_rows`` would: batches (and so OpenBLAS's ``M`` and the feature
bits), byte accounting and the serialized form all follow from that.
"""

import numpy as np
import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.data import foods_dataset, replicate_dataset, widen_structured_features
from repro.data.synthetic import generate_dataset
from repro.dataflow.context import local_context
from repro.dataflow.table import DistributedTable
from repro.tensor.tensorlist import TensorList

DATASETS = {
    "foods": lambda: foods_dataset(num_records=14),
    "wide": lambda: generate_dataset("wide", 12, 512, seed=3),
    "two_images": lambda: generate_dataset(
        "two", 10, 16, images_per_record=2, seed=4
    ),
    "replicated": lambda: replicate_dataset(foods_dataset(num_records=7), 2),
    "widened": lambda: widen_structured_features(
        foods_dataset(num_records=9), 200
    ),
}


@pytest.fixture(scope="module")
def alexnet():
    return build_model("alexnet", profile="mini")


def _tables(alexnet, dataset, num_partitions):
    config = VistaConfig(
        cpu=2, num_partitions=num_partitions, mem_storage_bytes=0,
        mem_user_bytes=0, mem_dl_bytes=0, join="broadcast",
        persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    executor = FeatureTransferExecutor(ctx, alexnet, dataset, ["fc8"], config)
    return ctx, {"t_str": executor.tstr, "t_img": executor.timg}


def _same_column(got, want):
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    else:
        assert not isinstance(got, np.ndarray)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert type(a) is type(b)
            assert a == b if isinstance(b, TensorList) \
                else np.array_equal(a, b)


@pytest.mark.parametrize("num_partitions", [1, 3, 4, 64])
@pytest.mark.parametrize("name", sorted(DATASETS))
def test_read_equals_packed_rows(alexnet, name, num_partitions):
    """Row for row, the strided read is what packing the row dicts
    gives: same columns, dtypes, values, sizes and VCB1 bytes."""
    dataset = DATASETS[name]()
    ctx, tables = _tables(alexnet, dataset, num_partitions)
    rows = {"t_str": dataset.structured_rows, "t_img": dataset.image_rows}
    for table_name, table in tables.items():
        packed = DistributedTable.from_rows(ctx, rows[table_name],
                                            num_partitions)
        assert table.num_partitions == packed.num_partitions
        assert table.memory_bytes() == packed.memory_bytes()
        for got, want in zip(table.partitions, packed.partitions):
            got, want = got.block(), want.block()
            assert got.column_names == want.column_names
            assert got.num_rows == want.num_rows
            for column in want.column_names:
                _same_column(got.column(column), want.column(column))
            assert got.to_buffer() == want.to_buffer()


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_read_shares_the_dataset_columns(alexnet, name):
    """Every array column of every source partition is a view of the
    dataset's own column, and a write through one raises."""
    dataset = DATASETS[name]()
    _, tables = _tables(alexnet, dataset, 3)
    blocks = {"t_str": dataset.t_str, "t_img": dataset.t_img}
    for table_name, table in tables.items():
        source = blocks[table_name]
        for partition in table.partitions:
            block = partition.block()
            for column in block.column_names:
                if not block.is_array(column):
                    continue
                view = block.column(column)
                assert np.shares_memory(view, source.column(column))
                assert not view.flags.writeable
    images = tables["t_img"].partitions[0].block().column("image")
    if isinstance(images, np.ndarray):
        with pytest.raises(ValueError, match="read-only"):
            images[0, 0, 0, 0] = 1.0
    features = tables["t_str"].partitions[0].block().column("features")
    with pytest.raises(ValueError, match="read-only"):
        features[0, 0] = 1.0


def test_dataset_columns_are_read_only():
    dataset = foods_dataset(num_records=4)
    for block in (dataset.t_str, dataset.t_img):
        for column in block.column_names:
            assert not block.column(column).flags.writeable


def test_strided_block_of_a_writable_block_is_read_only():
    """``from_block`` over a caller's writable block shares its memory
    without letting a write through a partition reach it."""
    from repro.dataflow.columnar import ColumnarBlock

    source = np.arange(12, dtype=np.float32).reshape(6, 2)
    block = ColumnarBlock({"id": np.arange(6), "x": source}, 6)
    part = block.strided(1, 4)
    assert part.num_rows == 2
    assert np.array_equal(part.column("x"), source[[1, 5]])
    assert np.shares_memory(part.column("x"), source)
    with pytest.raises(ValueError, match="read-only"):
        part.column("x")[0, 0] = -1.0
    assert source.flags.writeable
    assert block.strided(6, 4).num_rows == 0
