"""Durable checkpoint/resume: atomic write protocol, SHA-256
integrity verification, torn-manifest quarantine, resume-first
recovery in the supervisor, and the hostile-store fault classes.

The overarching contract under test: corrupt checkpoint state is
*never silently ingested* — every invalid entry is detected, counted,
logged, and recovered by lineage recompute, and a resumed run's
features are bit-identical to an uninterrupted run's.
"""

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
)


def _array_partition(index, n=6, seed=0):
    rng = np.random.default_rng(seed + index)
    return Partition.from_block(index, ColumnarBlock(
        {
            "id": np.arange(n, dtype=np.int64),
            "x": rng.standard_normal((n, 4)).astype(np.float32),
        },
        n,
    ))


def _bound_store(tmp_path, fingerprint="run-a"):
    return CheckpointStore(str(tmp_path)).bind_run(fingerprint)


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
    import hashlib
    import json

    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    run_dir = tmp_path / "run-a"
    payload = _pickled_rows()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    entry = manifest["stages"]["stage"]["partitions"]["0"]
    (run_dir / entry["file"]).write_bytes(payload)
    entry.update(sha256=hashlib.sha256(payload).hexdigest(),
                 nbytes=len(payload), num_rows=2)
    (run_dir / "manifest.json").write_text(json.dumps(manifest))

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
    store.commit_stage("infer:image->conv5", lineage=("map", "t_img"))
    assert store.stage_complete("infer:image->conv5")
    assert store.valid_partition_count() == 3
    assert store.checkpoint_bytes > 0
    # One never-reused file per wave; the manifest locates each
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


# ---------------------------------------------------------------------
# integrity: corruption, missing files, torn manifests
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
    # The bad entry is dropped from the manifest: the caller recomputes
    # it, and a later restore does not see it again.
    assert reopened.valid_partition_count() == 2
    assert not reopened.stage_complete("stage")


def test_missing_payload_detected_with_cause_chain(tmp_path):
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    run_dir = tmp_path / "run-a"
    os.remove(run_dir / store.stage_entries("stage")["0"]["file"])

    reopened = _bound_store(tmp_path)
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


def test_truncated_payload_is_torn_write(tmp_path):
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0), _array_partition(1)])
    run_dir = tmp_path / "run-a"
    victim = run_dir / store.stage_entries("stage")["1"]["file"]
    size = os.path.getsize(victim)
    with open(victim, "rb+") as handle:
        handle.truncate(size - 1)
    reopened = _bound_store(tmp_path)
    # The tear cut the tail of the wave file: the partition before it
    # still verifies, the one it cut does not.
    assert sorted(reopened.restore_stage("stage")) == [0]
    assert reopened.corrupt_total == 1


def test_torn_manifest_quarantines_run(tmp_path):
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    manifest = tmp_path / "run-a" / "manifest.json"
    size = os.path.getsize(manifest)
    with open(manifest, "rb+") as handle:
        handle.truncate(size // 2)

    reopened = _bound_store(tmp_path)
    assert reopened.torn_manifest_total == 1
    # Nothing in the namespace is trusted after a torn manifest:
    # recovery falls back to full recompute.
    assert reopened.valid_partition_count() == 0
    assert reopened.restore_stage("stage") == {}
    assert os.listdir(tmp_path / "run-a") == []


def test_wrong_fingerprint_manifest_is_structural_tear(tmp_path):
    run_dir = tmp_path / "run-a"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text(json.dumps(
        {"schema": "ckpt/v2", "fingerprint": "other", "seq": 0,
         "stages": {}}
    ))
    store = _bound_store(tmp_path)
    assert store.torn_manifest_total == 1


def test_v1_directory_is_quarantined(tmp_path):
    """A directory written by the per-partition ``ckpt/v1`` layout
    fails the structural check: nothing in it is read, all of it goes."""
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
    assert store.torn_manifest_total == 1
    assert store.valid_partition_count() == 0
    assert os.listdir(run_dir) == []


def test_bind_run_reclaims_orphan_wave_files(tmp_path):
    """A wave file whose manifest commit never happened is invisible to
    restore and removed at the next bind; referenced files stay."""
    store = _bound_store(tmp_path)
    store.put_partition("stage", [_array_partition(0)])
    run_dir = tmp_path / "run-a"
    (run_dir / "stage__2.ckpt").write_bytes(b"payload without a commit")
    reopened = _bound_store(tmp_path)
    assert sorted(os.listdir(run_dir)) == ["manifest.json", "stage__1.ckpt"]
    assert sorted(reopened.restore_stage("stage")) == [0]
    # The next wave takes a fresh sequence number.
    reopened.put_partition("stage", [_array_partition(1)])
    assert reopened.stage_entries("stage")["1"]["file"] == "stage__2.ckpt"


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
    plan = FaultPlan().checkpoint_missing(stage="stage", partition=1)
    injector = FaultInjector(plan, seed=3)
    store = CheckpointStore(str(tmp_path), fault_injector=injector)
    store.bind_run("run-a")
    store.put_partition("stage", [_array_partition(0), _array_partition(1)])
    store.put_partition("stage", [_array_partition(2)])
    reopened = _bound_store(tmp_path)
    restored = reopened.restore_stage("stage")
    # The rule deleted partition 1's wave file: its wave-mate is
    # missing with it, the other wave is intact.
    assert sorted(restored) == [2]
    assert reopened.missing_total == 2


def test_injected_torn_manifest_fault(tmp_path):
    plan = FaultPlan().checkpoint_torn()
    injector = FaultInjector(plan, seed=3)
    store = CheckpointStore(str(tmp_path), fault_injector=injector)
    store.bind_run("run-a")
    store.put_partition("stage", [_array_partition(0)])
    reopened = _bound_store(tmp_path)
    assert reopened.torn_manifest_total == 1
    assert reopened.valid_partition_count() == 0


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
