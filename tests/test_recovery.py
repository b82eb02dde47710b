"""Durable checkpoint/resume: atomic write protocol, SHA-256
integrity verification, the footer-built index and its torn waves,
resume-first recovery in the supervisor, and the hostile-store fault
classes.

The overarching contract under test: corrupt checkpoint state is
*never silently ingested* — every invalid entry is detected, counted,
logged, and recovered by lineage recompute, and a resumed run's
features are bit-identical to an uninterrupted run's.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.api import Vista, default_resources
from repro.data import foods_dataset
from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import Partition
from repro.exceptions import (
    CheckpointIntegrityError,
    ClusterExhausted,
    WorkloadCrash,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.retry import RecoveryLog
from repro.recovery import (
    CheckpointStore,
    atomic_write_bytes,
    decode_partition,
    encode_partition,
    reclaim_tmp_files,
    run_fingerprint,
    sha256_hex,
)
from repro.recovery.store import WAVE_MAGIC


def _array_partition(index, n=6, seed=0):
    rng = np.random.default_rng(seed + index)
    return Partition.from_block(index, ColumnarBlock(
        {
            "id": np.arange(n, dtype=np.int64),
            "x": rng.standard_normal((n, 4)).astype(np.float32),
        },
        n,
    ))


def _bound_store(tmp_path, fingerprint="run-a", recovery_log=None):
    return CheckpointStore(str(tmp_path)).bind_run(
        fingerprint, recovery_log=recovery_log)


def forge_wave(path, payloads=(), **changes):
    """Put ``payloads`` (partition key -> bytes) in place of wave file
    ``path``'s own, apply ``changes`` to its footer, and re-sign the
    footer to vouch for the result: a forgery only the checks past the
    footer's digest can catch."""
    data = path.read_bytes()
    length = int.from_bytes(data[-12:-4], "little")
    footer = json.loads(data[-44 - length:-44])
    footer.update(changes)
    body, offset = [], 0
    for key, entry in sorted(footer["partitions"].items(),
                             key=lambda item: item[1]["offset"]):
        blob = dict(payloads).get(
            key, data[entry["offset"]:entry["offset"] + entry["nbytes"]])
        entry.update(offset=offset, nbytes=len(blob),
                     sha256=sha256_hex(blob))
        body.append(blob)
        offset += len(blob)
    sealed = json.dumps(footer, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    path.write_bytes(b"".join([
        *body, sealed, hashlib.sha256(sealed).digest(),
        len(sealed).to_bytes(8, "little"), WAVE_MAGIC]))


# ---------------------------------------------------------------------
# atomic write + tmp reclamation
# ---------------------------------------------------------------------
def test_atomic_write_leaves_no_tmp(tmp_path):
    path = str(tmp_path / "blob.bin")
    atomic_write_bytes(path, b"payload")
    assert open(path, "rb").read() == b"payload"
    assert not any(n.endswith(".tmp") for n in os.listdir(tmp_path))


def test_atomic_write_failure_cleans_tmp(tmp_path, monkeypatch):
    path = str(tmp_path / "blob.bin")
    monkeypatch.setattr(os, "replace", _raise_oserror)
    with pytest.raises(OSError):
        atomic_write_bytes(path, b"payload")
    assert os.listdir(tmp_path) == []


def _raise_oserror(*args, **kwargs):
    raise OSError("injected rename failure")


def test_reclaim_tmp_files(tmp_path):
    (tmp_path / "a.ckpt.tmp").write_bytes(b"torn")
    (tmp_path / "b.ckpt").write_bytes(b"fine")
    reclaimed = reclaim_tmp_files(str(tmp_path))
    assert len(reclaimed) == 1 and reclaimed[0].endswith("a.ckpt.tmp")
    assert sorted(os.listdir(tmp_path)) == ["b.ckpt"]


def test_bind_run_reclaims_stray_tmp(tmp_path):
    run_dir = tmp_path / "run-a"
    run_dir.mkdir()
    (run_dir / "stage__p0.ckpt.tmp").write_bytes(b"torn")
    store = _bound_store(tmp_path)
    assert store.reclaimed_tmp_total == 1
    assert not any(
        n.endswith(".tmp") for n in os.listdir(run_dir)
    )


# ---------------------------------------------------------------------
# payload encode/decode round trip
# ---------------------------------------------------------------------
def test_encode_decode_columnar_round_trip():
    part = _array_partition(3)
    payload = encode_partition(part)
    assert payload == part.block().to_buffer()
    restored = decode_partition(3, payload)
    assert np.array_equal(restored.block().column("x"),
                          part.block().column("x"))


def test_encode_decode_rows_round_trip():
    rows = [{"id": 0, "a": 1, "tag": "x"}, {"id": 1, "a": 2, "tag": "y"}]
    part = Partition.from_rows(1, rows)
    restored = decode_partition(1, encode_partition(part))
    assert restored.rows() == rows


def _pickled_rows():
    # What the retired "rows" payload kind wrote for a partition of
    # mixed-schema rows.
    import pickle

    return pickle.dumps([{"id": 0, "a": 1}, {"id": 1, "b": 2}])


def test_decode_rejects_non_vcb1_payload():
    with pytest.raises(CheckpointIntegrityError, match="not a VCB1"):
        decode_partition(1, _pickled_rows())


def test_restore_drops_digest_valid_non_vcb1_payload(tmp_path):
    """A payload whose digest and length verify but which is not a
    VCB1 buffer is dropped as corrupt, never unpickled."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.commit_stage("stage")
    forge_wave(tmp_path / "run-a" / "stage__1.ckpt", {"0": _pickled_rows()})

    reopened = _bound_store(tmp_path)
    log = RecoveryLog()
    assert reopened.restore_stage("stage", recovery_log=log) == {}
    assert reopened.corrupt_total == 1
    assert "not a VCB1" in log.of("checkpoint_invalid")[0]["error"]


# ---------------------------------------------------------------------
# store: put / commit / restore
# ---------------------------------------------------------------------
def test_put_restore_round_trip(tmp_path):
    store = _bound_store(tmp_path)
    parts = [_array_partition(i) for i in range(3)]
    store.put_partition("infer:image->conv5", parts[:2])
    store.put_partition("infer:image->conv5", parts[2:])
    store.commit_stage("infer:image->conv5")
    assert store.valid_partition_count() == 3
    assert store.checkpoint_bytes > 0
    # One never-reused file per wave; its footer locates each
    # partition inside it.
    run_dir = tmp_path / "run-a"
    entries = store.stage_entries("infer:image->conv5")
    assert sorted(n for n in os.listdir(run_dir) if n.endswith(".ckpt")) \
        == sorted({entries["0"]["file"], entries["2"]["file"]})
    assert entries["0"]["file"].endswith("__1.ckpt")
    assert entries["2"]["file"].endswith("__2.ckpt")
    assert entries["1"]["file"] == entries["0"]["file"]
    assert entries["1"]["offset"] == entries["0"]["nbytes"]
    assert entries["2"]["offset"] == 0

    reopened = _bound_store(tmp_path)
    restored = reopened.restore_stage("infer:image->conv5")
    assert sorted(restored) == [0, 1, 2]
    assert reopened.restore_total == 3
    for index, part in enumerate(parts):
        assert np.array_equal(restored[index].block().column("x"),
                              part.block().column("x"))


def test_unbound_store_refuses_stage_api(tmp_path):
    store = CheckpointStore(str(tmp_path))
    with pytest.raises(RuntimeError, match="bind_run"):
        store.put_partition("s", [_array_partition(0)])


def test_different_fingerprints_are_isolated(tmp_path):
    store = _bound_store(tmp_path, "run-a")
    store.put_partition("stage", [_array_partition(0)])
    other = CheckpointStore(str(tmp_path)).bind_run("run-b")
    assert other.valid_partition_count() == 0
    assert other.restore_stage("stage") == {}


def test_run_fingerprint_covers_plan_and_config():
    from repro.core.config import VistaConfig

    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=1, mem_user_bytes=1,
        mem_dl_bytes=1, join="shuffle", persistence="deserialized",
    )
    base = run_fingerprint("alexnet", 0, ["fc6"], "48-abc", "staged/aj",
                           config)
    assert base == run_fingerprint("alexnet", 0, ["fc6"], "48-abc",
                                   "staged/aj", config)
    assert base != run_fingerprint("alexnet", 0, ["fc6"], "48-abc",
                                   "lazy/aj", config)
    from dataclasses import replace
    assert base != run_fingerprint(
        "alexnet", 0, ["fc6"], "48-abc", "staged/aj",
        replace(config, num_partitions=8),
    )


def test_run_fingerprint_covers_the_micro_batch():
    """Checkpoints written 105 rows per inference call are not restored
    into a run that batches 33 at a time."""
    from repro.core.config import VistaConfig

    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=1, mem_user_bytes=1,
        mem_dl_bytes=1, join="shuffle", persistence="deserialized",
    )
    key = ("alexnet", 0, ["fc6"], "48-abc", "staged/aj", config)
    assert run_fingerprint(*key, 105) == run_fingerprint(*key, 105)
    assert run_fingerprint(*key, 105) != run_fingerprint(*key, 33)


# ---------------------------------------------------------------------
# integrity: corruption, missing files, torn waves
# ---------------------------------------------------------------------
def _corrupt_file(path, offset):
    with open(path, "rb+") as handle:
        handle.seek(offset)
        byte = handle.read(1)[0]
        handle.seek(offset)
        handle.write(bytes([byte ^ 0xFF]))


def test_corrupt_payload_is_detected_and_dropped(tmp_path):
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(i) for i in range(3)])
    run_dir = tmp_path / "run-a"
    victim = store.stage_entries("stage")["1"]
    _corrupt_file(str(run_dir / victim["file"]), victim["offset"] + 20)

    reopened = _bound_store(tmp_path)
    log = RecoveryLog()
    restored = reopened.restore_stage("stage", recovery_log=log)
    assert sorted(restored) == [0, 2]
    assert reopened.corrupt_total == 1
    events = log.of("checkpoint_invalid")
    assert len(events) == 1
    assert events[0]["partition"] == 1 and events[0]["kind"] == "corrupt"
    # The bad entry is dropped from the index: the caller recomputes
    # it, and a later restore does not see it again.
    assert reopened.valid_partition_count() == 2


def test_missing_payload_detected_with_cause_chain(tmp_path):
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.commit_stage("stage")
    run_dir = tmp_path / "run-a"
    os.remove(run_dir / store.stage_entries("stage")["0"]["file"])

    # The file went after the bind that indexed it.
    reopened = store
    with pytest.raises(CheckpointIntegrityError) as excinfo:
        reopened._verify_and_load(
            "stage", 0, reopened.stage_entries("stage")["0"]
        )
    # raise ... from cause: the original FileNotFoundError traceback
    # survives on __cause__ (the traceback-chaining satellite).
    assert isinstance(excinfo.value.__cause__, FileNotFoundError)
    log = RecoveryLog()
    restored = reopened.restore_stage("stage", recovery_log=log)
    assert restored == {}
    assert reopened.missing_total == 1
    assert log.of("checkpoint_invalid")[0]["kind"] == "missing"
    assert log.of("checkpoint_invalid")[0]["cause"] == "FileNotFoundError"


def test_torn_manifest_quarantines_run(tmp_path):
    """A wave's footer is its manifest. Torn, it takes the wave with
    it, though the payload is whole: the next bind counts the file
    corrupt and removes it, and nothing of it restores."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.commit_stage("stage")
    (wave,) = (tmp_path / "run-a").iterdir()
    with open(wave, "rb+") as handle:
        handle.truncate(os.path.getsize(wave) - 9)

    reopened = _bound_store(tmp_path)
    assert reopened.corrupt_total == 1
    assert reopened.valid_partition_count() == 0
    assert reopened.restore_stage("stage") == {}
    assert os.listdir(tmp_path / "run-a") == []


def test_truncated_payload_is_torn_write(tmp_path):
    """A tear cuts the wave file's footer: the next bind removes the
    file, counts it corrupt and logs it, and only that wave's
    partitions are lost; the other waves restore."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0), _array_partition(1)])
    store.put_partition("stage", [_array_partition(2)])
    store.commit_stage("stage")
    run_dir = tmp_path / "run-a"
    entry = store.stage_entries("stage")["1"]
    victim = run_dir / entry["file"]
    with open(victim, "rb+") as handle:
        handle.truncate(entry["offset"] + entry["nbytes"] - 1)
    log = RecoveryLog()
    reopened = _bound_store(tmp_path, recovery_log=log)
    assert reopened.corrupt_total == 1
    (event,) = log.of("checkpoint_invalid")
    assert event["kind"] == "corrupt" and "stage__1.ckpt" in event["error"]
    assert os.listdir(run_dir) == ["stage__2.ckpt"]
    restored = reopened.restore_stage("stage")
    assert sorted(restored) == [2]
    assert np.array_equal(restored[2].block().column("x"),
                          _array_partition(2).block().column("x"))


def test_files_of_another_layout_are_cleared_uncounted(tmp_path):
    """A run namespace never holds another layout's files (its
    fingerprint hashes the schema), but should one appear — a
    ``ckpt/v3`` manifest, a wave whose footer names another schema —
    the bind removes it without counting damage."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.put_partition("stage", [_array_partition(1)])
    run_dir = tmp_path / "run-a"
    forge_wave(run_dir / "stage__2.ckpt", schema="ckpt/v3")
    (run_dir / "manifest.json").write_text(json.dumps(
        {"schema": "ckpt/v3", "fingerprint": "run-a", "seq": 2,
         "stages": {}}))
    reopened = _bound_store(tmp_path)
    assert reopened.corrupt_total == 0
    assert os.listdir(run_dir) == ["stage__1.ckpt"]
    assert sorted(reopened.restore_stage("stage")) == [0]


def test_v1_directory_is_quarantined(tmp_path):
    """A directory written by the per-partition ``ckpt/v1`` layout
    holds no wave footer: nothing in it is read, all of it goes, and
    its payload file counts as a torn wave."""
    run_dir = tmp_path / "run-a"
    run_dir.mkdir()
    (run_dir / "stage__p0.ckpt").write_bytes(b"VCB1 something")
    (run_dir / "manifest.json").write_text(json.dumps({
        "schema": "ckpt/v1", "fingerprint": "run-a",
        "stages": {"stage": {"complete": True, "lineage": None,
                             "partitions": {"0": {
                                 "file": "stage__p0.ckpt", "sha256": "0" * 64,
                                 "nbytes": 14, "num_rows": 1, "wave": None,
                             }}}},
    }))
    store = _bound_store(tmp_path)
    assert store.corrupt_total == 1
    assert store.valid_partition_count() == 0
    assert os.listdir(run_dir) == []


def test_bind_run_reclaims_orphan_wave_files(tmp_path):
    """A wave file whose footer does not parse is invisible to restore
    and removed (and counted) at the next bind; valid waves stay."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.commit_stage("stage")
    run_dir = tmp_path / "run-a"
    (run_dir / "stage__2.ckpt").write_bytes(b"payload without a footer")
    reopened = _bound_store(tmp_path)
    assert sorted(os.listdir(run_dir)) == ["stage__1.ckpt"]
    assert reopened.corrupt_total == 1
    assert sorted(reopened.restore_stage("stage")) == [0]
    # The next wave takes a fresh sequence number.
    reopened.put_partition("stage", [_array_partition(1)])
    assert reopened.stage_entries("stage")["1"]["file"] == "stage__2.ckpt"


def test_bind_run_indexes_waves_from_their_footers(tmp_path):
    """The index is the footers': the latest ``seq`` wins per stage and
    partition, a wave whose footer fails its digest is removed, and a
    wave that later ones fully superseded is dropped — at the next
    bind, or when its stage commits."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    store.put_partition("stage", [_array_partition(1), _array_partition(2)])
    store.put_partition("stage", [_array_partition(3)])
    store.put_partition("stage", [_array_partition(0, seed=5)])
    run_dir = tmp_path / "run-a"
    _corrupt_file(str(run_dir / "stage__3.ckpt"),
                  os.path.getsize(run_dir / "stage__3.ckpt") - 50)

    reopened = _bound_store(tmp_path)
    assert sorted(os.listdir(run_dir)) == ["stage__2.ckpt", "stage__4.ckpt"]
    assert reopened.corrupt_total == 1
    restored = reopened.restore_stage("stage")
    assert sorted(restored) == [0, 1, 2]
    want = {0: _array_partition(0, seed=5), 1: _array_partition(1),
            2: _array_partition(2)}
    for index, partition in restored.items():
        assert np.array_equal(partition.block().column("x"),
                              want[index].block().column("x"))
    reopened.put_partition("stage", [_array_partition(1),
                                     _array_partition(2),
                                     _array_partition(3)])
    assert len(os.listdir(run_dir)) == 3
    reopened.commit_stage("stage")
    assert sorted(os.listdir(run_dir)) == ["stage__4.ckpt", "stage__5.ckpt"]
    final = _bound_store(tmp_path)
    assert sorted(final.restore_stage("stage")) == [0, 1, 2, 3]


# ---------------------------------------------------------------------
# injected checkpoint faults (hostile store)
# ---------------------------------------------------------------------
def test_injected_corruption_fault_detected_on_restore(tmp_path):
    """The seeded flip lands inside the targeted partition's range of
    the wave file: its wave-mates on either side still verify."""
    plan = FaultPlan().checkpoint_corrupt(stage="stage", partition=1)
    injector = FaultInjector(plan, seed=3, recovery_log=RecoveryLog())
    store = CheckpointStore(str(tmp_path), fault_injector=injector)
    store.bind_run("run-a")
    store.put_partition("stage", [_array_partition(i) for i in range(3)])
    assert injector.injected["checkpoint-corrupt"] == 1
    assert injector.recovery_log.of("checkpoint_fault")

    reopened = _bound_store(tmp_path)
    restored = reopened.restore_stage("stage")
    assert sorted(restored) == [0, 2]
    assert reopened.corrupt_total == 1


def test_injected_missing_fault(tmp_path):
    """A missing rule deletes the whole wave file; a corrupt rule on a
    wave-mate then has no file to damage and does not fire."""
    plan = (FaultPlan().checkpoint_missing(stage="stage", partition=0)
            .checkpoint_corrupt(stage="stage", partition=1))
    injector = FaultInjector(plan, seed=3)
    store = CheckpointStore(str(tmp_path), fault_injector=injector)
    store.bind_run("run-a")
    store.put_partition("stage", [_array_partition(0), _array_partition(1)])
    store.put_partition("stage", [_array_partition(2)])
    store.commit_stage("stage")
    assert injector.injected["checkpoint-missing"] == 1
    assert injector.injected["checkpoint-corrupt"] == 0
    restored = store.restore_stage("stage")
    # The rule deleted partition 0's wave file: its wave-mate is
    # missing with it, the other wave is intact.
    assert sorted(restored) == [2]
    assert store.missing_total == 2
    # No footer names the deleted wave any more: a new bind indexes
    # only what is there, and the run recomputes the rest.
    assert _bound_store(tmp_path).stage_entries("stage").keys() == {"2"}


def test_injected_torn_wave_fault(tmp_path):
    plan = FaultPlan().checkpoint_torn()
    log = RecoveryLog()
    injector = FaultInjector(plan, seed=3, recovery_log=log)
    store = CheckpointStore(str(tmp_path), fault_injector=injector)
    store.bind_run("run-a")
    store.put_partition("stage", [_array_partition(0), _array_partition(1)])
    store.put_partition("stage", [_array_partition(2)])
    assert injector.injected["checkpoint-torn"] == 1
    assert "truncated wave file" in log.of("checkpoint_fault")[0]["detail"]
    reopened = _bound_store(tmp_path)
    assert reopened.corrupt_total == 1
    assert sorted(reopened.restore_stage("stage")) == [2]


# ---------------------------------------------------------------------
# end-to-end: checkpointed runs, crash + resume, bit identity
# ---------------------------------------------------------------------
def _make_vista():
    return Vista(
        model_name="alexnet", num_layers=2,
        dataset=foods_dataset(num_records=48),
        resources=default_resources(num_nodes=2),
        downstream_fn=lambda features, labels: {"matrix": features.copy()},
    )


@pytest.fixture(scope="module")
def baseline():
    return _make_vista().run()


def _matrices(result):
    return {
        layer: lr.downstream["matrix"]
        for layer, lr in result.layer_results.items()
    }


def _assert_bit_identical(result, baseline):
    expected = _matrices(baseline)
    actual = _matrices(result)
    assert sorted(actual) == sorted(expected)
    for layer, matrix in expected.items():
        assert np.array_equal(actual[layer], matrix), (
            f"features diverged on {layer}"
        )


def test_checkpointed_run_then_full_restore(tmp_path, baseline):
    store = CheckpointStore(str(tmp_path))
    first = _make_vista().run(checkpoint_store=store)
    _assert_bit_identical(first, baseline)
    assert store.recompute_total > 0 and store.restore_total == 0
    assert first.metrics["checkpoint_bytes"] == store.checkpoint_bytes
    assert first.metrics["recomputation_saved_ratio"] == 0.0

    second_store = CheckpointStore(str(tmp_path))
    second = _make_vista().run(checkpoint_store=second_store)
    _assert_bit_identical(second, baseline)
    assert second_store.restore_total > 0
    assert second_store.recompute_total == 0
    assert second.metrics["recomputation_saved_ratio"] == 1.0


def test_worker_loss_mid_wave_resumes_from_checkpoints(tmp_path, baseline):
    """The acceptance scenario: a run killed mid-wave by injected
    WorkerLost (both workers die -> ClusterExhausted) resumes from the
    checkpoint store on the same plan, restores only checksum-valid
    partitions, recomputes the rest, and yields bit-identical
    features."""
    fault_plan = (
        FaultPlan()
        .worker_loss(worker=None, wave=5)
        .worker_loss(worker=None, wave=6)
    )
    store = CheckpointStore(str(tmp_path))
    vista = _make_vista()
    # Without a checkpoint store the same fault sequence is fatal:
    # ClusterExhausted is non-retryable for the degradation ladder.
    with pytest.raises(ClusterExhausted):
        _make_vista().run_resilient(fault_plan=(
            FaultPlan()
            .worker_loss(worker=None, wave=5)
            .worker_loss(worker=None, wave=6)
        ), seed=7)

    result = vista.run_resilient(
        fault_plan=fault_plan, seed=7, checkpoint_store=store,
    )
    _assert_bit_identical(result, baseline)
    resumes = [
        e for e in result.metrics["recovery_log"] if e["event"] == "resume"
    ]
    assert resumes, "the supervisor must choose resume over degrade"
    assert resumes[0]["restorable_partitions"] > 0
    assert store.restore_total > 0, "resume must restore checkpoints"
    assert store.recompute_total > 0, "lost partitions must be recomputed"
    assert result.metrics["restore_total"] == store.restore_total
    assert 0.0 < result.metrics["recomputation_saved_ratio"] < 1.0
    # Resume keeps the original plan: no degradation happened.
    assert result.metrics["recovered_plan"] == "staged/aj"
    assert not [
        e for e in result.metrics["recovery_log"] if e["event"] == "degrade"
    ]


def test_corrupted_checkpoint_recovered_by_recompute(tmp_path, baseline):
    """Injected checkpoint corruption: detected via SHA-256 mismatch on
    resume, recovered by recomputing the damaged partition — never
    silently ingested."""
    fault_plan = (
        FaultPlan()
        .checkpoint_corrupt(partition=0)
        .worker_loss(worker=None, wave=5)
        .worker_loss(worker=None, wave=6)
    )
    store = CheckpointStore(str(tmp_path))
    result = _make_vista().run_resilient(
        fault_plan=fault_plan, seed=7, checkpoint_store=store,
    )
    _assert_bit_identical(result, baseline)
    assert store.corrupt_total >= 1
    assert result.metrics["checkpoint_corrupt_total"] >= 1
    invalid = [
        e for e in result.metrics["recovery_log"]
        if e["event"] == "checkpoint_invalid"
    ]
    assert invalid and invalid[0]["kind"] == "corrupt"
    # The flip sat inside partition 0's range of its wave file: only
    # that partition is recomputed, its wave-mates restore.
    assert [e["partition"] for e in invalid] == [0]
    restores = [
        e for e in result.metrics["recovery_log"]
        if e["event"] == "checkpoint_restore"
    ]
    assert restores[0]["partitions"] == list(range(1, 14))
    assert store.restore_total == 13


def test_torn_wave_file_costs_only_its_partitions_on_resume(
        tmp_path, baseline):
    """A cold run with one of its four wave files torn by hand: the
    resume removes that file, recomputes its 7 partitions only,
    restores the other three waves, and is bit-identical."""
    _make_vista().run(checkpoint_store=CheckpointStore(str(tmp_path)))
    (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    waves = sorted(run_dir.iterdir())
    assert len(waves) == 4
    waves[0].write_bytes(waves[0].read_bytes()[:-9])
    store = CheckpointStore(str(tmp_path))
    result = _make_vista().run(checkpoint_store=store)
    _assert_bit_identical(result, baseline)
    assert store.corrupt_total == 1
    assert store.restore_total == 21 and store.recompute_total == 7
    assert result.metrics["checkpoint_corrupt_total"] == 1
    # The three intact waves, and the one that recomputed the torn one.
    left = set(run_dir.iterdir())
    assert len(left) == 4 and set(waves[1:]) < left


def test_injected_torn_wave_recovered_by_resume(tmp_path, baseline):
    """The seeded ``checkpoint-torn`` fault tears the first wave file of
    the first INFER stage; the crash that follows resumes, the bind
    logs the torn wave as ``checkpoint_invalid``, its wave-mate
    restores, and the features are bit-identical."""
    fault_plan = (
        FaultPlan()
        .checkpoint_torn(stage="infer:image")
        .worker_loss(worker=None, wave=5)
        .worker_loss(worker=None, wave=6)
    )
    store = CheckpointStore(str(tmp_path))
    result = _make_vista().run_resilient(
        fault_plan=fault_plan, seed=7, checkpoint_store=store,
    )
    _assert_bit_identical(result, baseline)
    log = result.metrics["recovery_log"]
    (fault,) = [e for e in log if e["event"] == "checkpoint_fault"]
    assert fault["kind"] == "checkpoint-torn"
    (invalid,) = [e for e in log if e["event"] == "checkpoint_invalid"]
    assert invalid["kind"] == "corrupt" and "__1.ckpt" in invalid["error"]
    assert store.corrupt_total == 1
    (restore,) = [e for e in log if e["event"] == "checkpoint_restore"]
    assert restore["partitions"] == list(range(1, 14, 2))


def test_resume_counts_only_what_the_next_bind_indexes(tmp_path):
    """The resume decision's ``restorable_partitions`` counts the waves
    whose footers verify on disk, not the store's in-memory index: of
    the two waves that landed before the crash, the torn one counts
    nothing, and the resume restores exactly the 7 it counted."""
    fault_plan = (
        FaultPlan()
        .checkpoint_torn(stage="infer:image")
        .worker_loss(worker=None, wave=5)
        .worker_loss(worker=None, wave=6)
    )
    result = _make_vista().run_resilient(
        fault_plan=fault_plan, seed=7,
        checkpoint_store=CheckpointStore(str(tmp_path)),
    )
    log = result.metrics["recovery_log"]
    (resume,) = [e for e in log if e["event"] == "resume"]
    (restore,) = [e for e in log if e["event"] == "checkpoint_restore"]
    assert resume["restorable_partitions"] == 7
    assert len(restore["partitions"]) == 7


def test_resume_stalls_fall_back_to_degradation_ladder(tmp_path):
    """_should_resume: progress-gated. No store -> never; a bound
    store resumes only while the valid-partition count grows."""
    from repro.core.resilient import ResilientRunner

    runner = ResilientRunner(_make_vista())
    assert runner._should_resume() is False

    store = CheckpointStore(str(tmp_path)).bind_run("run-a")
    runner = ResilientRunner(_make_vista(), checkpoint_store=store)
    assert runner._should_resume() is False  # empty store: no progress
    store.put_partition("stage", [_array_partition(0)])
    assert runner._should_resume() is True   # grew: resume
    assert runner._should_resume() is False  # stalled: degrade
    store.put_partition("stage", [_array_partition(1)])
    assert runner._should_resume() is True   # grew again: resume again


# ---------------------------------------------------------------------
# an INFER stage stores what the CNN computed; the carried columns
# come back from its input
# ---------------------------------------------------------------------
#: Plan -> whether its INFER stages carry ``features``/``label`` (+aj).
CARRY_PLANS = {"staged": True, "eager-reordered": True,
               "lazy-reordered": True, "staged-bj": False}


def _plan_run(root, plan_name, num_records=24, num_partitions=4,
              join="broadcast", log=None):
    """One run of AlexNet-mini's top two layers; ``root`` None runs
    without a store. Returns ``(result, store)``."""
    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import ALL_PLANS
    from repro.dataflow.context import local_context

    model = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=2, num_partitions=num_partitions, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join=join,
        persistence="deserialized",
    )
    store = CheckpointStore(str(root)) if root is not None else None
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    ctx.recovery_log = log
    try:
        result = FeatureTransferExecutor(
            ctx, model, foods_dataset(num_records=num_records),
            model.feature_layers[-2:], config,
            downstream_fn=lambda features, labels: {
                "matrix": features.copy()},
            checkpoint_store=store,
        ).run(ALL_PLANS[plan_name])
    finally:
        ctx.exec_backend.close()
    return result, store


def _spy_checkpointed_maps(monkeypatch):
    """``(input table, output table, checkpoint)`` of every
    checkpointed ``map_blocks`` call."""
    from repro.dataflow.table import DistributedTable

    calls = []
    original = DistributedTable.map_blocks

    def spy(self, block_fn, *args, checkpoint=None, **kwargs):
        out = original(self, block_fn, *args, checkpoint=checkpoint,
                       **kwargs)
        if checkpoint is not None:
            calls.append((self, out, checkpoint))
        return out

    monkeypatch.setattr(DistributedTable, "map_blocks", spy)
    return calls


def _stored_payloads(root):
    """``(stage, partition key, entry, payload)`` of every partition
    the wave files of the one run namespace under ``root`` commit."""
    (run_dir,) = [path for path in os.listdir(root)
                  if os.path.isdir(os.path.join(root, path))]
    store = CheckpointStore(root).bind_run(run_dir)
    for stage_id in store.stages():
        for key, entry in sorted(store.stage_entries(stage_id).items()):
            with open(os.path.join(root, run_dir, entry["file"]),
                      "rb") as handle:
                handle.seek(entry["offset"])
                yield stage_id, key, entry, handle.read(entry["nbytes"])


def _header_columns(payload):
    header_len = int.from_bytes(payload[4:8], "little")
    header = json.loads(payload[8:8 + header_len])
    return [col["name"] for col in header["cols"]]


@pytest.mark.parametrize("plan_name", sorted(CARRY_PLANS))
def test_restored_stage_carries_its_input_columns_by_reference(
        tmp_path, monkeypatch, plan_name):
    """The payload holds ``id`` and the tensor columns only; a resumed
    +aj stage's ``features``/``label`` are the input partition's own
    arrays, in the order the cold stage wrote them, and every feature
    matrix is bit-identical to a run without a store."""
    plain, _ = _plan_run(None, plan_name)
    _, cold = _plan_run(tmp_path, plan_name)
    for _, _, entry, payload in _stored_payloads(str(tmp_path)):
        if entry["num_rows"]:
            columns = _header_columns(payload)
            assert columns[0] == "id", columns
            assert all(c.startswith("tensor") for c in columns[1:]), columns

    calls = _spy_checkpointed_maps(monkeypatch)
    resumed, store = _plan_run(tmp_path, plan_name)
    assert store.restore_total == cold.checkpoint_partitions_total
    assert store.recompute_total == 0
    _assert_bit_identical(resumed, plain)
    assert calls
    for table, out, (_, stage_id, carried) in calls:
        assert stage_id.endswith("+aj") == CARRY_PLANS[plan_name]
        assert bool(carried) == CARRY_PLANS[plan_name]
        for source, partition in zip(table.partitions, out.partitions):
            block, source = partition.block(), source.block()
            if not block.num_rows:
                continue
            names = block.column_names
            if not carried:
                assert "features" not in names and "label" not in names
                continue
            assert names[:3] == ["id", "features", "label"], names
            for column in ("features", "label"):
                assert np.shares_memory(block.column(column),
                                        source.column(column)), column


@pytest.mark.parametrize(
    "plan_name", sorted(p for p, aj in CARRY_PLANS.items() if aj))
def test_stored_ids_that_disagree_with_the_input_are_recomputed(
        tmp_path, plan_name):
    """A payload whose digest verifies but whose ``id`` column is not
    its input partition's (reversed here, digest re-signed) cannot be
    given the input's carried columns: it is logged as a corrupt
    ``checkpoint_invalid`` and recomputed, bit-identically."""
    plain, _ = _plan_run(None, plan_name)
    _, cold = _plan_run(tmp_path, plan_name)
    stage_id, key, entry, payload = next(
        found for found in _stored_payloads(str(tmp_path))
        if found[2]["num_rows"] > 1
    )
    block = ColumnarBlock.from_buffer(payload)
    forged = ColumnarBlock(
        {name: np.ascontiguousarray(block.column(name)[::-1])
         if name == "id" else block.column(name)
         for name in block.column_names},
        block.num_rows,
    ).to_buffer()
    assert len(forged) == len(payload) and forged != payload
    (run_dir,) = [p for p in tmp_path.iterdir() if p.is_dir()]
    forge_wave(run_dir / entry["file"], {key: forged})

    log = RecoveryLog()
    resumed, store = _plan_run(tmp_path, plan_name, log=log)
    invalid = log.of("checkpoint_invalid")
    assert [(e["stage"], e["partition"], e["kind"]) for e in invalid] \
        == [(stage_id, int(key), "corrupt")]
    assert store.corrupt_total == 1 and store.recompute_total == 1
    assert store.restore_total == cold.checkpoint_partitions_total - 1
    _assert_bit_identical(resumed, plain)


def test_resume_restores_empty_partitions(tmp_path):
    """32 shuffle partitions over 20 records leave empty ones: their
    checkpoints restore as empty partitions (an empty partition is
    falsy — it must not be mistaken for one that was never restored)."""
    kwargs = dict(num_records=20, num_partitions=32, join="shuffle")
    plain, _ = _plan_run(None, "staged", **kwargs)
    _, cold = _plan_run(tmp_path, "staged", **kwargs)
    assert cold.checkpoint_partitions_total == 64
    resumed, store = _plan_run(tmp_path, "staged", **kwargs)
    assert store.restore_total == 64 and store.recompute_total == 0
    _assert_bit_identical(resumed, plain)
