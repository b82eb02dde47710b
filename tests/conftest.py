"""Shared fixtures: mini models, small datasets, and local contexts."""

import os
import tempfile
import threading

import numpy as np
import pytest

from repro.cnn import build_model, get_model_stats
from repro.core.config import DatasetStats, Resources
from repro.core.executor import FeatureTransferExecutor
from repro.data import amazon_dataset, foods_dataset
from repro.dataflow.context import local_context
from repro.memory.model import GB, Region


def _open_fds():
    listing = os.open("/proc/self/fd", os.O_RDONLY)
    try:
        return set(os.listdir(listing)) - {str(listing)}
    finally:
        os.close(listing)


@pytest.fixture(autouse=True)
def no_leaks(tmp_path, monkeypatch):
    """After every test, pass or fail: no child process left (live or
    zombie), no thread left (a model's training lanes included), the
    same open fds as before, nothing of ours in /dev/shm,
    no ``*.tmp`` from an unfinished atomic write, no ``*.spill`` file and
    no ``vista-spill-*`` directory under the test's own ``tmp_path``
    (which stands in for the system temp directory), and — once a
    ``FeatureTransferExecutor.run`` has returned or raised — no
    partition still charged to a worker's Storage region and no byte
    still charged to any accountant region of a worker or the driver."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    fds_before = _open_fds()
    threads_before = set(threading.enumerate())
    still_cached = []
    still_charged = []
    run = FeatureTransferExecutor.run

    def checked_run(self, *args, **kwargs):
        try:
            return run(self, *args, **kwargs)
        finally:
            context = self.context
            still_cached.extend(
                (worker.node_id, worker.storage.used_bytes,
                 worker.storage.cached_keys())
                for worker in context.workers
                if worker.storage.used_bytes
            )
            accountants = [("driver", context.driver)] + [
                (f"w{worker.node_id}", worker.accountant)
                for worker in context.workers
            ]
            still_charged.extend(
                (owner, region.value, accountant.used(region))
                for owner, accountant in accountants
                for region in Region if accountant.used(region)
            )

    monkeypatch.setattr(FeatureTransferExecutor, "run", checked_run)
    yield
    assert not still_cached
    assert not still_charged
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(threading.enumerate()) == threads_before
    assert _open_fds() == fds_before
    if os.path.isdir("/dev/shm"):
        assert not [
            name for name in os.listdir("/dev/shm")
            if name.startswith("vista")
        ]
    assert not [
        os.path.join(folder, name)
        for folder, folders, names in os.walk(tmp_path)
        for name in names + folders
        if name.endswith((".tmp", ".spill"))
        or name.startswith("vista-spill-")
    ]


@pytest.fixture(scope="session")
def alexnet_mini():
    return build_model("alexnet", profile="mini")


@pytest.fixture(scope="session")
def vgg16_mini():
    return build_model("vgg16", profile="mini")


@pytest.fixture(scope="session")
def resnet50_mini():
    return build_model("resnet50", profile="mini")


@pytest.fixture(scope="session", params=["alexnet", "vgg16", "resnet50"])
def any_mini_model(request):
    return build_model(request.param, profile="mini")


@pytest.fixture(scope="session")
def small_foods():
    return foods_dataset(num_records=60)


@pytest.fixture(scope="session")
def small_amazon():
    return amazon_dataset(num_records=60)


@pytest.fixture
def ctx():
    return local_context(num_nodes=2, cores_per_node=4)


@pytest.fixture(scope="session")
def paper_resources():
    """The paper's CloudLab worker spec."""
    return Resources(
        num_nodes=8, system_memory_bytes=32 * GB, cores_per_node=8
    )


@pytest.fixture(scope="session")
def foods_stats():
    return DatasetStats(
        num_records=20_000, num_structured_features=130,
        avg_image_bytes=14 * 1024,
    )


@pytest.fixture(scope="session")
def amazon_stats():
    return DatasetStats(
        num_records=200_000, num_structured_features=200,
        avg_image_bytes=15 * 1024,
    )


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


def random_image(shape=(32, 32, 3), seed=0):
    return np.random.default_rng(seed).normal(size=shape).astype(np.float32)
