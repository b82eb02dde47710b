"""Crash consistency of the checkpoint store — and, at the end, of the
feature store — at every write boundary.

``CheckpointStore`` and ``FeatureStore`` do all of their durable I/O
through :mod:`repro.atomic_io`'s syscall shim. ``CrashIO`` stands in for it:
it performs the real call, counts it, and — asked to — "kills the
process" right after the n-th ``write`` / ``fsync`` / ``replace``: that
call took effect, nothing after it does. In ``power-loss`` mode the
kill also tears (halves) every file whose last write was never
fsynced, which is what a missing fsync-before-rename would expose.

After each kill a fresh store binds the directory and must show the
reader's contract: exactly the waves whose manifest rename completed
restore, in full and bit-identical; nothing else restores; stray
``*.tmp`` and orphan ``*.ckpt`` files are gone; and the run can carry
on from there.
"""

import os

import numpy as np
import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import Partition
from repro.features.store import FeatureStore
from repro.recovery import MANIFEST_NAME, CheckpointStore


class Killed(BaseException):
    """The simulated SIGKILL / power cut."""


class CrashIO:
    """``os`` for :mod:`repro.atomic_io`, counted and killable."""

    KILL_POINTS = ("write", "fsync", "replace")

    def __init__(self, kill_after=None, power_loss=False):
        self.kill_after = kill_after
        self.power_loss = power_loss
        self.calls = []          # (name, path) of every durable syscall
        self.dead = False
        self._paths = {}         # open fd -> path
        self._unsynced = set()   # paths written since their last fsync

    def count(self, name):
        return sum(1 for call, _ in self.calls if call == name)

    def _alive(self):
        if self.dead:
            raise Killed()

    def _done(self, name, path):
        self.calls.append((name, path))
        points = [c for c in self.calls if c[0] in self.KILL_POINTS]
        if name in self.KILL_POINTS and len(points) == self.kill_after:
            self.dead = True
            if self.power_loss:
                for torn in self._unsynced:
                    if os.path.exists(torn):
                        os.truncate(torn, os.path.getsize(torn) // 2)
            raise Killed()

    def open(self, path, flags, mode=0o777):
        self._alive()
        fd = os.open(path, flags, mode)
        self._paths[fd] = path
        return fd

    def write(self, fd, data):
        self._alive()
        written = os.write(fd, data)
        self._unsynced.add(self._paths[fd])
        self._done("write", self._paths[fd])
        return written

    def fsync(self, fd):
        self._alive()
        os.fsync(fd)
        self._unsynced.discard(self._paths[fd])
        self._done("fsync", self._paths[fd])

    def close(self, fd):
        # A dead process's fds are closed for it: always goes through.
        self._paths.pop(fd, None)
        os.close(fd)

    def replace(self, src, dst):
        self._alive()
        os.replace(src, dst)
        if src in self._unsynced:
            self._unsynced.discard(src)
            self._unsynced.add(dst)
        self._done("replace", dst)

    def remove(self, path):
        self._alive()
        os.remove(path)

    def listdir(self, path):
        self._alive()
        return os.listdir(path)


def _partition(index):
    rng = np.random.default_rng(index)
    return Partition.from_block(index, ColumnarBlock(
        {
            "id": np.arange(5, dtype=np.int64) + 10 * index,
            "x": rng.standard_normal((5, 8)).astype(np.float32),
        },
        5,
    ))


#: Two stages, two waves each; every step ends in one manifest rename.
STEPS = [
    ("put", "stage-a", (0, 1)), ("put", "stage-a", (2, 3)),
    ("commit", "stage-a", ()),
    ("put", "stage-b", (0, 1)), ("put", "stage-b", (2, 3)),
    ("commit", "stage-b", ()),
]
#: tmp write + fsync + rename, payload then manifest, per put; manifest
#: only per commit.
KILL_POINTS = sum(6 if step[0] == "put" else 3 for step in STEPS)


def _apply(store, step):
    kind, stage, indexes = step
    if kind == "put":
        store.put_partition(stage, [_partition(i) for i in indexes])
    else:
        store.commit_stage(stage, lineage=("map", "t_in"))


def _store(root, io=None):
    store = CheckpointStore(str(root))
    if io is not None:
        store.io = io
    return store.bind_run("run")


def _expected(steps):
    """``{stage: (partition indexes, complete)}`` after ``steps``."""
    state = {"stage-a": (set(), False), "stage-b": (set(), False)}
    for kind, stage, indexes in steps:
        have, complete = state[stage]
        state[stage] = (have | set(indexes), complete or kind == "commit")
    return state


def _assert_state(store, run_dir, steps):
    """The store shows exactly the state ``steps`` leave: those
    partitions restore bit-identical, nothing else does, and the
    directory holds the manifest plus referenced wave files only."""
    referenced = set()
    for stage, (indexes, complete) in _expected(steps).items():
        referenced |= {
            entry["file"] for entry in store.stage_entries(stage).values()
        }
        restored = store.restore_stage(stage)
        assert set(restored) == indexes, (stage, sorted(restored))
        for index, partition in restored.items():
            want = _partition(index).block()
            got = partition.block()
            assert np.array_equal(got.column("id"), want.column("id"))
            assert np.array_equal(got.column("x"), want.column("x"))
        assert store.stage_complete(stage) == complete
    assert store.corrupt_total == 0 and store.missing_total == 0
    assert store.torn_manifest_total == 0
    files = set(os.listdir(run_dir))
    assert files - {MANIFEST_NAME} == referenced


def test_kill_points_are_all_enumerated(tmp_path):
    """An unkilled run makes exactly ``KILL_POINTS`` kill-able calls,
    so the parametrized test below covers every one of them."""
    io = CrashIO()
    store = _store(tmp_path, io)
    for step in STEPS:
        _apply(store, step)
    assert sum(io.count(name) for name in io.KILL_POINTS) == KILL_POINTS
    assert io.count("fsync") == io.count("replace") == 2 * 4 + 2
    _assert_state(_store(tmp_path), tmp_path / "run", STEPS)


@pytest.mark.parametrize("power_loss", [False, True],
                         ids=["kill", "power-loss"])
@pytest.mark.parametrize("kill_after", range(1, KILL_POINTS + 1))
def test_kill_after_every_syscall(tmp_path, kill_after, power_loss):
    io = CrashIO(kill_after=kill_after, power_loss=power_loss)
    store = _store(tmp_path, io)
    with pytest.raises(Killed):
        for step in STEPS:
            _apply(store, step)
    last_call = io.calls[-1]
    # The manifest rename is the only commit point: the steps that got
    # that far are the committed state, whatever else hit the disk.
    committed = STEPS[:sum(
        1 for name, path in io.calls
        if name == "replace" and path.endswith(MANIFEST_NAME)
    )]

    run_dir = tmp_path / "run"
    reopened = _store(tmp_path)
    assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]
    if last_call[0] != "replace":
        # Died inside a tmp write: the next bind found the stray tmp.
        assert reopened.reclaimed_tmp_total == 1
    _assert_state(reopened, run_dir, committed)

    # The run carries on from the committed prefix to the full state.
    for step in STEPS[len(committed):]:
        _apply(reopened, step)
    _assert_state(_store(tmp_path), run_dir, STEPS)


@pytest.mark.parametrize("kill_after", [1, 2, 3])
def test_kill_while_restore_drops_a_corrupt_entry(tmp_path, kill_after):
    """Restore rewrites the manifest when it drops an invalid entry.
    Killed anywhere in that rewrite, the next bind sees either the old
    manifest (and detects the damage again) or the new one — the
    damaged partition never restores."""
    store = _store(tmp_path)
    for step in STEPS[:3]:
        _apply(store, step)
    victim = store.stage_entries("stage-a")["1"]
    path = tmp_path / "run" / victim["file"]
    data = bytearray(path.read_bytes())
    data[victim["offset"] + 7] ^= 0xFF
    path.write_bytes(bytes(data))

    dying = _store(tmp_path, CrashIO(kill_after=kill_after))
    with pytest.raises(Killed):
        dying.restore_stage("stage-a")
    assert dying.corrupt_total == 1

    reopened = _store(tmp_path)
    assert sorted(reopened.restore_stage("stage-a")) == [0, 2, 3]
    assert not reopened.stage_complete("stage-a")
    assert not [
        n for n in os.listdir(tmp_path / "run") if n.endswith(".tmp")
    ]


def test_syncs_per_run_of_the_test_workload(tmp_path):
    """The 48-record recovery workload (AlexNet, 2 layers, Staged/AJ, 14
    partitions on 2 workers = 2 waves per stage): a cold run syncs one
    payload and one manifest per wave plus one manifest per stage, and
    checkpoints the two INFER outputs only; a full resume writes
    nothing."""
    def run(io):
        store = CheckpointStore(str(tmp_path))
        store.io = io
        Vista(
            model_name="alexnet", num_layers=2,
            dataset=foods_dataset(num_records=48),
            resources=default_resources(num_nodes=2),
        ).run(checkpoint_store=store)
        return store

    cold = CrashIO()
    store = run(cold)
    waves, stages = 4, 2
    assert store.stages() == ["infer:fc7->fc8+aj", "infer:image->fc7+aj"]
    assert store.checkpoint_partitions_total == 28
    assert cold.count("fsync") == 2 * waves + stages
    assert cold.count("replace") == 2 * waves + stages
    assert cold.count("write") == 2 * waves + stages
    assert len([
        n for n in os.listdir(os.path.join(str(tmp_path), store.fingerprint))
        if n.endswith(".ckpt")
    ]) == waves

    resume = CrashIO()
    resumed = run(resume)
    assert resumed.restore_total == 28 and resumed.recompute_total == 0
    assert resume.calls == []


# ----------------------------------------------------------------------
# FeatureStore.put: data, then the metadata that commits it
# ----------------------------------------------------------------------
FEATURE_KEY = ("alexnet", "conv5", "16-0badcafe")
#: tmp write + fsync + rename, for the data file and for the metadata.
FEATURE_KILL_POINTS = 6


def _feature_rows(version):
    rng = np.random.default_rng(version)
    return [
        {"id": i,
         "tensor": np.maximum(rng.standard_normal(64), 0).astype(np.float32)}
        for i in range(12)
    ]


def _assert_hit(store, version):
    block = store.get(*FEATURE_KEY)
    want = ColumnarBlock.from_rows(_feature_rows(version))
    assert block.column("id").tolist() == want.column("id").tolist()
    assert np.array_equal(block.column("tensor"), want.column("tensor"))


def test_feature_store_kill_points_are_all_enumerated(tmp_path):
    io = CrashIO()
    store = FeatureStore(tmp_path)
    store.io = io
    store.put(*FEATURE_KEY, _feature_rows(1))
    assert [name for name, _ in io.calls] == [
        "write", "fsync", "replace"] * 2
    assert [os.path.basename(path) for name, path in io.calls
            if name == "replace"] == [
        "alexnet__conv5__16-0badcafe.vcb", "alexnet__conv5__16-0badcafe.json"]
    _assert_hit(FeatureStore(tmp_path), 1)


@pytest.mark.parametrize("overwrite", [False, True], ids=["fresh", "overwrite"])
@pytest.mark.parametrize("power_loss", [False, True],
                         ids=["kill", "power-loss"])
@pytest.mark.parametrize("kill_after", range(1, FEATURE_KILL_POINTS + 1))
def test_feature_store_put_killed_after_every_syscall(
        tmp_path, kill_after, power_loss, overwrite):
    """Whatever the put was killed after, the next session sees a clean
    miss or a verified hit of the new rows — never a torn hit, never
    new data vouched for by old metadata (or the reverse)."""
    if overwrite:
        FeatureStore(tmp_path).put(*FEATURE_KEY, _feature_rows(0))
    io = CrashIO(kill_after=kill_after, power_loss=power_loss)
    dying = FeatureStore(tmp_path)
    dying.io = io
    with pytest.raises(Killed):
        dying.put(*FEATURE_KEY, _feature_rows(1))
    committed = (io.calls[-1][0] == "replace"
                 and str(io.calls[-1][1]).endswith(".json"))
    assert committed == (kill_after == FEATURE_KILL_POINTS)

    reopened = FeatureStore(tmp_path)
    assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert reopened.contains(*FEATURE_KEY) == committed
    if committed:
        _assert_hit(reopened, 1)
    else:
        assert reopened.get(*FEATURE_KEY) is None
        assert (reopened.hits, reopened.misses) == (0, 1)
        reopened.put(*FEATURE_KEY, _feature_rows(1))   # the run carries on
        _assert_hit(FeatureStore(tmp_path), 1)
