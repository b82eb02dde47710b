"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cnn import build_model
from repro.dataflow.context import local_context
from repro.dataflow.joins import broadcast_join, shuffle_hash_join
from repro.dataflow.partition import Partition
from repro.dataflow.record import estimate_record_bytes
from repro.dataflow.storage import StorageManager
from repro.dataflow.table import DistributedTable
from repro.ml.metrics import f1_score
from repro.tensor.ops import grid_max_pool
from repro.tensor.tensorlist import TensorList

_MODELS = {
    name: build_model(name, profile="mini")
    for name in ("alexnet", "resnet50")
}


@st.composite
def _image_and_model(draw):
    name = draw(st.sampled_from(sorted(_MODELS)))
    model = _MODELS[name]
    seed = draw(st.integers(0, 2**16))
    image = np.random.default_rng(seed).normal(
        size=model.input_shape
    ).astype(np.float32)
    return model, image


@given(_image_and_model())
@settings(max_examples=15, deadline=None)
def test_partial_inference_composition(model_image):
    """f̂_{i→j} ∘ f̂_{1→i} == f̂_{1→j} for every consecutive feature
    layer pair — the identity underlying Staged execution."""
    model, image = model_image
    previous_name = None
    previous_out = None
    for layer in model.feature_layers:
        if previous_name is None:
            out = model.forward(image, upto=layer)
        else:
            out = model.partial_forward(previous_out, previous_name, layer)
        direct = model.forward(image, upto=layer)
        np.testing.assert_allclose(out, direct, rtol=1e-3, atol=1e-4)
        previous_name, previous_out = layer, out


@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=60, unique=True),
    st.lists(st.integers(0, 200), min_size=1, max_size=60, unique=True),
    st.integers(1, 12),
)
@settings(max_examples=25, deadline=None)
def test_joins_match_set_intersection(left_keys, right_keys, np_):
    """Both physical joins must equal key-set intersection semantics,
    for any partitioning."""
    ctx = local_context()
    left = DistributedTable.from_rows(
        ctx, [{"id": k, "x": k} for k in left_keys], np_
    )
    right = DistributedTable.from_rows(
        ctx, [{"id": k, "y": -k} for k in right_keys], np_
    )
    expected = sorted(set(left_keys) & set(right_keys))
    shuffled = sorted(
        r["id"] for r in shuffle_hash_join(left, right).collect()
    )
    broadcast = sorted(
        r["id"] for r in broadcast_join(left, right).collect()
    )
    assert shuffled == expected
    assert broadcast == expected


@given(st.integers(1, 40), st.integers(2, 64))
@settings(max_examples=25, deadline=None)
def test_record_estimate_upper_bounds_payload(n_fields, dim):
    """The Tungsten-style estimate is always >= the raw payload bytes
    (Figure 15's safety-margin property)."""
    row = {"id": 0}
    for i in range(n_fields):
        row[f"f{i}"] = np.zeros(dim, dtype=np.float32)
    payload = sum(
        v.nbytes for v in row.values() if isinstance(v, np.ndarray)
    )
    assert estimate_record_bytes(row) >= payload


@given(st.lists(st.integers(100, 2000), min_size=1, max_size=20),
       st.integers(500, 5000))
@settings(max_examples=25, deadline=None)
def test_storage_conservation(sizes, capacity):
    """Cached + spilled always accounts for every admitted byte, and
    cached bytes never exceed capacity."""
    storage = StorageManager(capacity)
    total = 0
    for index, size in enumerate(sizes):
        rows = [{"id": index, "x": np.zeros(size // 4, dtype=np.float32)}]
        part = Partition.from_rows(index, rows)
        nbytes = part.memory_bytes()
        storage.cache(f"p{index}", part)
        total += nbytes
    # A single oversized partition may exceed capacity (it has nothing
    # left to evict); otherwise the region respects its budget.
    assert storage.used_bytes <= capacity \
        or len(storage.cached_keys()) == 1
    assert storage.used_bytes + storage.spilled_bytes_total >= min(
        total, storage.used_bytes
    )
    assert storage.used_bytes >= 0
    storage.clear()  # its spill files go with it


@given(st.lists(st.integers(0, 1), min_size=1, max_size=50),
       st.lists(st.integers(0, 1), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_f1_bounded(a, b):
    n = min(len(a), len(b))
    score = f1_score(a[:n], b[:n])
    assert 0.0 <= score <= 1.0


@given(st.integers(2, 10), st.integers(2, 10), st.integers(1, 8),
       st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_grid_pool_bounds(h, w, c, seed):
    """Pooled values are maxima: bounded by the tensor's max, and at
    least the tensor's min."""
    tensor = np.random.default_rng(seed).normal(size=(h, w, c))
    pooled = grid_max_pool(tensor, grid=2)
    assert pooled.max() == tensor.max()
    assert pooled.min() >= tensor.min()


@given(st.lists(st.integers(1, 16), min_size=0, max_size=5),
       st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_tensorlist_flatten_concat_length(dims, seed):
    rng = np.random.default_rng(seed)
    tensors = [rng.normal(size=d) for d in dims]
    tlist = TensorList(tensors)
    assert tlist.flatten_concat().shape == (sum(dims),)
    assert tlist.num_elements() == sum(dims)


@given(st.integers(1, 64), st.integers(1, 16))
@settings(max_examples=20, deadline=None)
def test_partition_roundtrip(n_rows, dim):
    rows = [
        {"id": i, "x": np.full(dim, float(i), dtype=np.float32)}
        for i in range(n_rows)
    ]
    part = Partition.from_rows(0, rows)
    blob = part.serialized_blob()
    restored = Partition(0, blob=blob)
    assert len(restored) == n_rows
    for original, back in zip(rows, restored.rows()):
        assert original["id"] == back["id"]
        np.testing.assert_array_equal(original["x"], back["x"])


@given(st.integers(1, 7), st.integers(1, 16), st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_optimizer_np_constraints_hold(cpu, nodes, s_single_hundreds_mb):
    """Eq. 13-14: NumPartitions output is always a positive multiple of
    total cores with partitions under p_max."""
    from repro.core.optimizer import num_partitions_for
    from repro.memory.model import MB

    s_single = s_single_hundreds_mb * 100 * MB
    np_ = num_partitions_for(s_single, cpu, nodes)
    assert np_ % (cpu * nodes) == 0
    assert s_single / np_ <= 100 * MB


@given(
    st.sampled_from(["alexnet", "vgg16", "resnet50"]),
    st.integers(1, 3),
    st.integers(16, 64),     # node memory GB
    st.integers(2, 16),      # nodes
    st.integers(1_000, 500_000),
    st.integers(10, 1000),
)
@settings(max_examples=40, deadline=None)
def test_optimizer_output_always_satisfies_constraints(
    model, num_layers, mem_gb, nodes, records, features
):
    """For any workload/cluster the optimizer either raises
    NoFeasiblePlan or returns a config satisfying every constraint —
    and the cost model's crash check (same arithmetic) agrees."""
    from repro.cnn import get_model_stats
    from repro.core.config import (
        DEFAULT_CORE_MEMORY,
        DEFAULT_OS_RESERVED,
        DatasetStats,
        Resources,
        Workload,
    )
    from repro.core.optimizer import optimize
    from repro.core.plans import STAGED
    from repro.costmodel import detect_crash, vista_setup
    from repro.costmodel.params import ClusterSpec
    from repro.exceptions import NoFeasiblePlan
    from repro.memory.model import GB

    stats = get_model_stats(model)
    layers = stats.top_feature_layers(
        min(num_layers, len(stats.feature_layers))
    )
    workload = Workload(
        stats, layers, DatasetStats(records, features, 14 * 1024)
    )
    resources = Resources(nodes, mem_gb * GB, 8)
    cluster = ClusterSpec(
        num_nodes=nodes, cores_per_node=8,
        system_memory_bytes=mem_gb * GB,
    )
    for backend in ("spark", "ignite"):
        try:
            config = optimize(workload, resources, backend=backend)
        except NoFeasiblePlan:
            continue
        # Eq. 9
        assert 1 <= config.cpu <= 7
        # Eq. 12
        total = (
            DEFAULT_OS_RESERVED + config.mem_dl_bytes
            + config.mem_user_bytes + DEFAULT_CORE_MEMORY
            + config.mem_storage_bytes
        )
        assert total <= resources.system_memory_bytes
        # Eq. 13
        assert config.num_partitions % (config.cpu * nodes) == 0
        # the shared crash model never flags Vista's own configuration
        crash = detect_crash(
            workload, STAGED, vista_setup(config, backend=backend), cluster,
        )
        assert crash is None, (backend, crash)
