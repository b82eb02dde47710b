"""Crash consistency of the checkpoint store — and, at the end, of the
feature store — at every write boundary.

``CheckpointStore`` and ``FeatureStore`` do all of their durable I/O
through :mod:`repro.atomic_io`'s syscall shim. ``CrashIO`` stands in for it:
it performs the real call, counts it, and — asked to — "kills the
process" right after the n-th call of the kinds it watches (``write`` /
``fsync`` / ``replace`` unless told otherwise): that call took effect,
nothing after it does. In ``power-loss`` mode the kill also tears
(halves) every file whose last write was never fsynced, which is what a
missing fsync-before-rename would expose.

After each kill a fresh store binds the directory and must show the
reader's contract: exactly the waves whose file rename completed
restore, in full and bit-identical, indexed from their footers;
nothing else restores; stray ``*.tmp`` files are gone; and the run can
carry on from there.
"""

import mmap
import os

import numpy as np
import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import Partition
from repro.features.store import FeatureStore
from repro.recovery import CheckpointStore


class Killed(BaseException):
    """The simulated SIGKILL / power cut."""


class CrashIO:
    """``os`` for :mod:`repro.atomic_io`, counted and killable."""

    KILL_POINTS = ("write", "fsync", "replace")
    SYSCALLS = ("open", "write", "fsync", "close", "replace")

    def __init__(self, kill_after=None, power_loss=False,
                 points=KILL_POINTS):
        self.kill_after = kill_after
        self.power_loss = power_loss
        self.points = points
        self.calls = []          # (name, path) of every watched syscall
        self.dead = False
        self._paths = {}         # open fd -> path
        self._unsynced = set()   # paths written since their last fsync

    def count(self, name):
        return sum(1 for call, _ in self.calls if call == name)

    def _alive(self):
        if self.dead:
            raise Killed()

    def _done(self, name, path):
        if name not in self.points:
            return
        self.calls.append((name, path))
        if len(self.calls) == self.kill_after:
            self.kill()

    def kill(self):
        """Die here; a power cut first tears every file written since
        its last fsync."""
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
        try:
            self._done("open", path)
        except Killed:
            self.close(fd)
            raise
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
        path = self._paths.pop(fd, None)
        os.close(fd)
        if not self.dead:
            self._done("close", path)

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


#: Two stages, three waves each; a put is one atomic file write (the
#: wave file), a stage commit writes nothing.
STEPS = [
    ("put", "stage-a", (0, 1)), ("put", "stage-a", (2, 3)),
    ("put", "stage-a", (4, 5)), ("commit", "stage-a", ()),
    ("put", "stage-b", (0, 1)), ("put", "stage-b", (2, 3)),
    ("put", "stage-b", (4, 5)), ("commit", "stage-b", ()),
]
PUTS = [step for step in STEPS if step[0] == "put"]
#: open, write, fsync, close and rename of one tmp file, per put.
KILL_POINTS = len(CrashIO.SYSCALLS) * len(PUTS)


def _apply(store, step):
    kind, stage, indexes = step
    if kind == "put":
        store.put_partition(stage, [_partition(i) for i in indexes])
    else:
        store.commit_stage(stage)


def _store(root, io=None):
    store = CheckpointStore(str(root))
    if io is not None:
        store.io = io
    return store.bind_run("run")


def _expected(steps):
    """``{stage: partition indexes}`` after ``steps``."""
    state = {"stage-a": set(), "stage-b": set()}
    for _, stage, indexes in steps:
        state[stage] |= set(indexes)
    return state


def _assert_state(store, run_dir, steps):
    """The store shows exactly the state ``steps`` leave: those
    partitions restore bit-identical, nothing else does, and the
    directory holds the indexed wave files only."""
    referenced = set()
    for stage, indexes in _expected(steps).items():
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
    assert store.corrupt_total == 0 and store.missing_total == 0
    assert set(os.listdir(run_dir)) == referenced


def test_kill_points_are_all_enumerated(tmp_path):
    """An unkilled run makes exactly ``KILL_POINTS`` syscalls — each
    wave is one open / write / fsync / close / rename, a stage commit
    none — so the parametrized test below covers every one of them."""
    io = CrashIO(points=CrashIO.SYSCALLS)
    store = _store(tmp_path, io)
    for step in STEPS:
        _apply(store, step)
    assert [name for name, _ in io.calls] == list(CrashIO.SYSCALLS) * 6
    assert [os.path.basename(path) for name, path in io.calls
            if name == "replace"] == [
        "stage-a__1.ckpt", "stage-a__2.ckpt", "stage-a__3.ckpt",
        "stage-b__4.ckpt", "stage-b__5.ckpt", "stage-b__6.ckpt"]
    assert len(io.calls) == KILL_POINTS
    _assert_state(_store(tmp_path), tmp_path / "run", STEPS)


@pytest.mark.parametrize("power_loss", [False, True],
                         ids=["kill", "power-loss"])
@pytest.mark.parametrize("kill_after", range(1, KILL_POINTS + 1))
def test_kill_after_every_syscall(tmp_path, kill_after, power_loss):
    io = CrashIO(kill_after=kill_after, power_loss=power_loss,
                 points=CrashIO.SYSCALLS)
    store = _store(tmp_path, io)
    with pytest.raises(Killed):
        for step in STEPS:
            _apply(store, step)
    last_call = io.calls[-1]
    # A wave file's rename is its commit point: the puts that got that
    # far are the committed state, whatever else hit the disk.
    committed = PUTS[:io.count("replace")]

    run_dir = tmp_path / "run"
    reopened = _store(tmp_path)
    assert not [n for n in os.listdir(run_dir) if n.endswith(".tmp")]
    if last_call[0] != "replace":
        # Died inside a tmp write: the next bind found the stray tmp.
        assert reopened.reclaimed_tmp_total == 1
    _assert_state(reopened, run_dir, committed)

    # The run carries on from the committed prefix to the full state.
    for step in STEPS[STEPS.index(committed[-1]) + 1 if committed else 0:]:
        _apply(reopened, step)
    _assert_state(_store(tmp_path), run_dir, STEPS)


@pytest.mark.parametrize("kill_after", [1, 2, 3])
def test_kill_while_restore_drops_a_corrupt_entry(tmp_path, kill_after):
    """Restore drops an invalid entry from the index, and the run puts
    that partition again in a new wave. Killed anywhere in that put
    (write, fsync, rename), the next bind sees either the damaged wave
    alone (and detects the damage again) or the new wave superseding
    its entry — the damaged bytes never restore."""
    store = _store(tmp_path)
    for step in STEPS[:4]:
        _apply(store, step)
    victim = store.stage_entries("stage-a")["1"]
    path = tmp_path / "run" / victim["file"]
    data = bytearray(path.read_bytes())
    data[victim["offset"] + 7] ^= 0xFF
    path.write_bytes(bytes(data))

    dying = _store(tmp_path, CrashIO(kill_after=kill_after))
    assert sorted(dying.restore_stage("stage-a")) == [0, 2, 3, 4, 5]
    assert dying.corrupt_total == 1
    with pytest.raises(Killed):
        dying.put_partition("stage-a", [_partition(1)])

    reopened = _store(tmp_path)
    restored = reopened.restore_stage("stage-a")
    landed = kill_after == 3
    assert sorted(restored) == ([0, 1, 2, 3, 4, 5] if landed
                                else [0, 2, 3, 4, 5])
    assert reopened.corrupt_total == (0 if landed else 1)
    if landed:
        assert np.array_equal(restored[1].block().column("x"),
                              _partition(1).block().column("x"))
    assert not [
        n for n in os.listdir(tmp_path / "run") if n.endswith(".tmp")
    ]


def test_syncs_per_run_of_the_test_workload(tmp_path):
    """The 48-record recovery workload (AlexNet, 2 layers, Staged/AJ, 14
    partitions on 2 workers = 2 waves per stage): a cold run syncs one
    wave file per wave and nothing per stage, and checkpoints the two
    INFER outputs only; a full resume writes nothing."""
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
    waves = 4
    assert store.stages() == ["infer:fc7->fc8+aj", "infer:image->fc7+aj"]
    assert store.checkpoint_partitions_total == 28
    assert cold.count("fsync") == waves
    assert cold.count("replace") == waves
    assert cold.count("write") == waves
    files = os.listdir(os.path.join(str(tmp_path), store.fingerprint))
    assert len(files) == waves and all(n.endswith(".ckpt") for n in files)

    resume = CrashIO()
    resumed = run(resume)
    assert resumed.restore_total == 28 and resumed.recompute_total == 0
    assert resume.calls == []


def _downstream(features, labels):
    return {"matrix": features.copy()}


@pytest.mark.parametrize("kill_after, adopted", [(3, 7), (9, 21)],
                         ids=["first-stage", "second-stage"])
def test_a_wave_renamed_before_its_stage_commit_is_resumed(
        tmp_path, kill_after, adopted):
    """Killed right after a wave file's rename, before its stage's
    commit (the first wave of either INFER stage of the 48-record
    workload; each wave is write + fsync + rename): the resume indexes
    every wave from its footer, restores their partitions, recomputes
    the rest, and its features are bit-identical."""
    def run(io=None):
        store = CheckpointStore(str(tmp_path))
        if io is not None:
            store.io = io
        result = Vista(
            model_name="alexnet", num_layers=2,
            dataset=foods_dataset(num_records=48),
            resources=default_resources(num_nodes=2),
            downstream_fn=_downstream,
        ).run(checkpoint_store=store)
        return result, store

    dying = CrashIO(kill_after=kill_after)
    with pytest.raises(Killed):
        run(dying)
    name, path = dying.calls[-1]
    assert name == "replace" and path.endswith(".ckpt")

    resumed, store = run()
    assert store.restore_total == adopted
    assert store.recompute_total == 28 - adopted
    baseline = Vista(
        model_name="alexnet", num_layers=2,
        dataset=foods_dataset(num_records=48),
        resources=default_resources(num_nodes=2),
        downstream_fn=_downstream,
    ).run()
    for layer, expected in baseline.layer_results.items():
        assert np.array_equal(
            resumed.layer_results[layer].downstream["matrix"],
            expected.downstream["matrix"],
        ), layer


# ----------------------------------------------------------------------
# FeatureStore.put: one one-partition wave
# ----------------------------------------------------------------------
FEATURE_KEY = ("alexnet", "conv5", "16-0badcafe")
FEATURE_DIR = "alexnet__conv5__16-0badcafe"
#: open, write, fsync, close and rename of the wave's tmp file, then a
#: kill that lands after ``put`` returned.
FEATURE_KILL_POINTS = len(CrashIO.SYSCALLS) + 1


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
    io = CrashIO(points=CrashIO.SYSCALLS)
    store = FeatureStore(tmp_path)
    store.io = io
    store.put(*FEATURE_KEY, _feature_rows(1))
    assert [name for name, _ in io.calls] == list(CrashIO.SYSCALLS)
    assert [os.path.basename(path) for name, path in io.calls
            if name == "replace"] == [f"{FEATURE_DIR}__1.ckpt"]
    _assert_hit(FeatureStore(tmp_path), 1)


@pytest.mark.parametrize("overwrite", [False, True], ids=["fresh", "overwrite"])
@pytest.mark.parametrize("power_loss", [False, True],
                         ids=["kill", "power-loss"])
@pytest.mark.parametrize("kill_after", range(1, FEATURE_KILL_POINTS + 1))
def test_feature_store_put_killed_after_every_syscall(
        tmp_path, kill_after, power_loss, overwrite):
    """Whatever syscall of the put it was killed after, or right after
    the put returned, the next session sees a clean miss or a verified
    hit of the new rows — never a torn hit, never the old rows."""
    if overwrite:
        FeatureStore(tmp_path).put(*FEATURE_KEY, _feature_rows(0))
    io = CrashIO(kill_after=kill_after, power_loss=power_loss,
                 points=CrashIO.SYSCALLS)
    dying = FeatureStore(tmp_path)
    dying.io = io
    with pytest.raises(Killed):
        dying.put(*FEATURE_KEY, _feature_rows(1))
        io.kill()
    committed = io.count("replace") == 1
    assert committed == (kill_after >= len(CrashIO.SYSCALLS))

    reopened = FeatureStore(tmp_path)
    assert not [
        n for n in os.listdir(tmp_path / FEATURE_DIR) if n.endswith(".tmp")
    ]
    assert reopened.contains(*FEATURE_KEY) == committed
    if committed:
        _assert_hit(reopened, 1)
    else:
        assert reopened.get(*FEATURE_KEY) is None
        assert (reopened.hits, reopened.misses) == (0, 1)
        reopened.put(*FEATURE_KEY, _feature_rows(1))   # the run carries on
        _assert_hit(FeatureStore(tmp_path), 1)


def test_feature_store_reopen_reclaims_an_uncommitted_payload(tmp_path):
    """A put killed after its wave's fsync but before the rename that
    commits it leaves a whole wave in a ``*.tmp`` file: reopening the
    store removes it, and no entry is listed or counted."""
    dying = FeatureStore(tmp_path)
    dying.io = CrashIO(kill_after=2)
    with pytest.raises(Killed):
        dying.put(*FEATURE_KEY, _feature_rows(1))
    assert [name for name, _ in dying.io.calls] == ["write", "fsync"]

    reopened = FeatureStore(tmp_path)
    assert not [name for _, _, names in os.walk(tmp_path) for name in names]
    assert not reopened.contains(*FEATURE_KEY)
    assert reopened.entries() == []
    assert reopened.total_bytes() == 0


# ----------------------------------------------------------------------
# Storage spill files: killed mid-spill and mid-re-read
# ----------------------------------------------------------------------
class Counted:
    """Stands in for ``call`` and "kills the process" at its
    ``kill_after``-th use, after writing ``written`` of the bytes it was
    given (a spill file's ``write_all``: 0, half, all); ``mmap.mmap``
    with ``written`` None."""

    def __init__(self, call, kill_after=None, written=None):
        self.call = call
        self.calls = 0
        self.kill_after = kill_after
        self.written = written

    def __call__(self, *args, **kwargs):
        self.calls += 1
        if self.calls != self.kill_after:
            return self.call(*args, **kwargs)
        if self.written is not None:
            fd, data = args
            os.write(fd, bytes(data[:int(len(data) * self.written)]))
        raise Killed()


_SPILL_CACHE = {}


def _spill_run(spill_dir, squeeze=True):
    """Eager over AlexNet-mini, serialized, on one worker whose Storage
    holds one partition: its cache spills, and each of its three
    projections re-reads the spill files."""
    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import ALL_PLANS
    from repro.dataflow.context import local_context
    from tests.test_plan_equivalence_prop import admissions

    if not _SPILL_CACHE:
        _SPILL_CACHE.update(
            model=build_model("alexnet", profile="mini"),
            dataset=foods_dataset(num_records=64),
        )
    model = _SPILL_CACHE["model"]
    ctx = local_context(num_nodes=1, cores_per_node=2, cpu=2,
                        exec_backend="serial")
    storage = ctx.workers[0].storage
    storage.spill_dir = str(spill_dir)
    if squeeze:
        if "squeezed" not in _SPILL_CACHE:
            with admissions() as charged:
                _spill_run(spill_dir, squeeze=False)
            _SPILL_CACHE["squeezed"] = max(charged)
        storage.capacity_bytes = _SPILL_CACHE["squeezed"]
    executor = FeatureTransferExecutor(
        ctx, model, _SPILL_CACHE["dataset"], model.feature_layers[-3:],
        VistaConfig(cpu=2, num_partitions=4, mem_storage_bytes=10**9,
                    mem_user_bytes=10**9, mem_dl_bytes=10**9,
                    join="shuffle", persistence="serialized"),
        downstream_fn=_downstream,
    )
    return executor.run(ALL_PLANS["eager"])


def test_spill_kill_points_exist(tmp_path, monkeypatch):
    """The squeezed run writes more than one spill file and re-reads
    more than three times, so the kills below land where they say."""
    from repro.dataflow import storage

    writes = Counted(storage.write_all)
    reads = Counted(mmap.mmap)
    monkeypatch.setattr(storage, "write_all", writes)
    monkeypatch.setattr(mmap, "mmap", reads)
    _spill_run(tmp_path)
    assert writes.calls >= 2 and reads.calls >= 3
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("kill", [
    ("write", 1, 0.0), ("write", 1, 0.5), ("write", 2, 1.0),
    ("mmap", 1, None), ("mmap", 3, None),
], ids=["spill-opened", "spill-half-written", "spill-written-unclosed",
        "first-re-read", "third-re-read"])
def test_a_run_killed_mid_spill_or_mid_re_read_leaves_nothing(
        tmp_path, monkeypatch, kill):
    """Killed with a spill file just created, half written or written
    but not closed, or at a spill re-read, the run raises and its
    unwinding removes every spill file it made. The next run in the same
    ``spill_dir`` never reads a file it did not write — a planted wave
    file of other rows stays unread and untouched — trains on the
    unkilled run's exact matrices, and leaves nothing of its own."""
    from repro.dataflow import storage

    spill_dir = tmp_path / "spill"
    spill_dir.mkdir()
    plain = _spill_run(spill_dir, squeeze=False)
    call, kill_after, written = kill
    module, name = (storage, "write_all") if call == "write" else (
        mmap, "mmap")
    with monkeypatch.context() as patch:
        patch.setattr(module, name, Counted(getattr(module, name),
                                            kill_after, written))
        with pytest.raises(Killed):
            _spill_run(spill_dir)
    assert os.listdir(spill_dir) == []

    decoy = spill_dir / "decoy.spill"
    decoy.write_bytes(_partition(7).block().to_buffer())
    resumed = _spill_run(spill_dir)
    assert resumed.metrics["spill_read_bytes"] > 0
    assert os.listdir(spill_dir) == ["decoy.spill"]
    decoy.unlink()
    for layer, expected in plain.layer_results.items():
        assert np.array_equal(
            resumed.layer_results[layer].downstream["matrix"],
            expected.downstream["matrix"],
        ), layer
