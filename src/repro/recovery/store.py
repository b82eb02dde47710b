"""Durable checkpoint store for long materialization runs.

A feature-transfer run is a sequence of materialized stages (partial
CNN inference tables, ``f̂_l`` prefixes). The vectorized train tables
are a pool + concat of those and are rebuilt on resume, not stored.
Losing the cluster mid-run used to mean recomputing the whole epoch
from the source table; this module makes stage outputs *durable
artifacts* instead (DeepLens's materialized-view stance, SystemML's
lineage-backed intermediates): every committed partition is persisted
as its deterministic single-buffer VCB1 encoding, and a JSON manifest
carries per-partition SHA-256 digests plus the run's plan/config
fingerprint, so a resumed run restores exactly the partitions that
verify and recomputes only the missing or corrupt ones.

Durability discipline
---------------------
The unit of durability is the committed task wave. A wave's payloads
are concatenated into one file, ``<stage>__<seq>.ckpt``, whose name is
never reused (``seq`` lives in the manifest); the manifest then records
``{file, offset, nbytes, sha256, num_rows}`` per partition. Both files
are written with :func:`repro.atomic_io.atomic_write_bytes` (tmp +
fsync + rename), payload first: the manifest rename is the only commit
point, and every payload is durable before the manifest that names it.
A crash before that rename leaves the old manifest plus a stray
``*.tmp`` or an unreferenced ``*.ckpt``, both reclaimed on the next
:meth:`CheckpointStore.bind_run`.
Torn manifests (truncated after a simulated fsync lie, or a seeded
``checkpoint-torn`` fault) are *detected* at bind time — the JSON no
longer parses or fails structural checks — and the run directory is
quarantined: all of its checkpoints are discarded and recovery falls
back to full lineage recompute rather than trusting unverifiable
state.

Integrity discipline
--------------------
Restore never trusts a file: each partition's ``[offset, offset +
nbytes)`` range is read back, its SHA-256 recomputed and compared
against the manifest digest, its length against the recorded length,
and its decoded row count against the recorded row count. Any
mismatch counts on ``corrupt_total`` (surfaced as the
``checkpoint_corrupt_total`` metric) and the partition is recomputed
from lineage — an injected bit flip can cost recompute time but can
never leak corrupt feature bytes into a train table.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.dataflow.columnar import ColumnarBlock, is_columnar_buffer
from repro.dataflow.partition import Partition
from repro.exceptions import CheckpointIntegrityError
from repro.metrics import NULL_METRICS

#: Manifest schema tag.
MANIFEST_SCHEMA = "ckpt/v2"
MANIFEST_NAME = "manifest.json"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _safe(name):
    """Filesystem-safe form of a stage id (``infer:image->conv5+aj`` →
    ``infer-image-conv5-aj``)."""
    return _UNSAFE.sub("-", str(name)).strip("-")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def run_fingerprint(model_name, model_seed, layers, dataset_fp, plan_label,
                    config):
    """Deterministic fingerprint of everything that shapes a stage
    output's bytes: the model identity, layer set, dataset, logical
    plan, and the config knobs that change partition composition.
    Checkpoints are only ever restored into a run with the same
    fingerprint — a degraded plan or re-partitioned config gets a
    fresh (empty) checkpoint namespace."""
    payload = json.dumps(
        {
            "model": model_name,
            "model_seed": model_seed,
            "layers": list(layers),
            "dataset": dataset_fp,
            "plan": plan_label,
            "join": config.join,
            "persistence": config.persistence,
            "num_partitions": config.num_partitions,
        },
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:16]


def encode_partition(partition):
    """A partition's durable payload: its block's deterministic VCB1
    single-buffer encoding."""
    return partition.block().to_buffer()


def decode_partition(index, payload):
    """Rebuild a :class:`Partition` from a verified payload."""
    if not is_columnar_buffer(payload):
        raise CheckpointIntegrityError(
            f"partition {index}: payload is not a VCB1 buffer",
            partition=index,
        )
    return Partition.from_block(index, ColumnarBlock.from_buffer(payload))


class CheckpointStore:
    """Durable, integrity-verified checkpoints under one root
    directory.

    One store serves many runs: each run fingerprint gets its own
    subdirectory holding a manifest plus one payload file per
    committed wave. Bind the store to a run with
    :meth:`bind_run` before using the stage API; the resilient
    supervisor and the executor share one store object so the
    restore/recompute counters accumulate across resume attempts.

    Counters (also emitted on an attached metrics registry):

    - ``checkpoint_bytes``: payload bytes durably written;
    - ``checkpoint_partitions_total``: partitions written;
    - ``restore_total``: partitions restored (checksum-verified);
    - ``recompute_total``: partitions computed in checkpointed stages
      (fresh work — on a resume run, what the store could *not* save);
    - ``corrupt_total``: checksum/length/row-count mismatches detected;
    - ``missing_total``: manifested payload files that disappeared;
    - ``torn_manifest_total``: unreadable manifests quarantined.

    ``io`` is the syscall shim every durable write goes through
    (:mod:`repro.atomic_io`); tests replace it on an instance.
    """

    io = os

    def __init__(self, root, metrics=None, fault_injector=None, fsync=True):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.metrics = metrics if metrics is not None else NULL_METRICS
        self.fault_injector = fault_injector
        self.fsync = fsync
        self.fingerprint = None
        self._run_dir = None
        self._manifest = None
        self.checkpoint_bytes = 0
        self.checkpoint_partitions_total = 0
        self.restore_total = 0
        self.recompute_total = 0
        self.corrupt_total = 0
        self.missing_total = 0
        self.torn_manifest_total = 0
        self.reclaimed_tmp_total = 0

    def attach_metrics(self, metrics):
        self.metrics = metrics if metrics is not None else NULL_METRICS
        return self

    # ------------------------------------------------------------------
    # run binding
    # ------------------------------------------------------------------
    def bind_run(self, fingerprint):
        """Open (or create) the checkpoint namespace for one run
        fingerprint: reclaim what a mid-write crash left behind —
        stray tmp files and wave files no manifest entry names — load
        the manifest, and quarantine the whole namespace if the
        manifest is torn. Returns self."""
        self.fingerprint = str(fingerprint)
        self._run_dir = os.path.join(self.root, self.fingerprint)
        os.makedirs(self._run_dir, exist_ok=True)
        reclaimed = reclaim_tmp_files(self._run_dir, io=self.io)
        self.reclaimed_tmp_total += len(reclaimed)
        try:
            self._manifest = self._load_manifest()
        except CheckpointIntegrityError:
            self._quarantine()
        referenced = {
            entry["file"]
            for stage in self._manifest["stages"].values()
            for entry in stage["partitions"].values()
        }
        for name in self.io.listdir(self._run_dir):
            if name.endswith(".ckpt") and name not in referenced:
                self.io.remove(os.path.join(self._run_dir, name))
        return self

    def _empty_manifest(self):
        return {"schema": MANIFEST_SCHEMA, "fingerprint": self.fingerprint,
                "seq": 0, "stages": {}}

    def _manifest_path(self):
        return os.path.join(self._run_dir, MANIFEST_NAME)

    def _load_manifest(self):
        path = self._manifest_path()
        if not os.path.exists(path):
            return self._empty_manifest()
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as cause:
            raise CheckpointIntegrityError(
                f"torn manifest at {path}: {cause}"
            ) from cause
        if (manifest.get("schema") != MANIFEST_SCHEMA
                or manifest.get("fingerprint") != self.fingerprint
                or not isinstance(manifest.get("seq"), int)
                or not isinstance(manifest.get("stages"), dict)):
            raise CheckpointIntegrityError(
                f"manifest at {path} failed structural checks "
                f"(schema={manifest.get('schema')!r}, "
                f"fingerprint={manifest.get('fingerprint')!r})"
            )
        return manifest

    def _quarantine(self):
        """A torn manifest means nothing in the namespace is
        trustworthy: discard every file and start fresh — recovery
        falls back to recompute, never to unverifiable restores."""
        self.torn_manifest_total += 1
        self.metrics.counter("checkpoint_torn_manifest_total").inc()
        for entry in self.io.listdir(self._run_dir):
            self.io.remove(os.path.join(self._run_dir, entry))
        self._manifest = self._empty_manifest()

    def _require_bound(self):
        if self._manifest is None:
            raise RuntimeError(
                "CheckpointStore is not bound to a run; call bind_run()"
            )

    def _write_manifest(self):
        payload = json.dumps(
            self._manifest, sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        path = self._manifest_path()
        atomic_write_bytes(path, payload, fsync=self.fsync, io=self.io)
        injector = self.fault_injector
        if injector is not None:
            injector.on_manifest_commit(path)

    def _stage(self, stage_id):
        return self._manifest["stages"].setdefault(
            str(stage_id),
            {"partitions": {}, "complete": False, "lineage": None},
        )

    # ------------------------------------------------------------------
    # stage API
    # ------------------------------------------------------------------
    def put_partition(self, stage_id, partitions):
        """Durably persist one committed wave of a stage: the
        partitions' payloads land in one new wave file, then one
        manifest rewrite names them all. The manifest rename is the
        commit point — a crash before it leaves the wave unrecorded
        (its file is reclaimed on the next bind), a crash after it
        finds every partition of the wave restorable."""
        self._require_bound()
        self._manifest["seq"] += 1
        filename = f"{_safe(stage_id)}__{self._manifest['seq']}.ckpt"
        path = os.path.join(self._run_dir, filename)
        payloads = [encode_partition(partition) for partition in partitions]
        nbytes = atomic_write_bytes(
            path, b"".join(payloads), fsync=self.fsync, io=self.io
        )
        entries = self._stage(stage_id)["partitions"]
        injector = self.fault_injector
        offset = 0
        for partition, payload in zip(partitions, payloads):
            entries[str(partition.index)] = {
                "file": filename,
                "offset": offset,
                "nbytes": len(payload),
                "sha256": sha256_hex(payload),
                "num_rows": len(partition),
            }
            if injector is not None:
                injector.on_checkpoint_write(
                    stage_id, partition.index, path, offset, len(payload)
                )
            offset += len(payload)
        self._write_manifest()
        self.checkpoint_bytes += nbytes
        self.checkpoint_partitions_total += len(payloads)
        self.recompute_total += len(payloads)
        self.metrics.counter("checkpoint_bytes_total").inc(nbytes)
        self.metrics.counter("checkpoint_partitions_total").inc(len(payloads))
        self.metrics.counter("recompute_total").inc(len(payloads))

    def commit_stage(self, stage_id, lineage=None):
        """Mark a stage's checkpoint complete (every partition
        committed) and record its lineage tuple. A stage restored in
        full is already marked: nothing changed, nothing is written."""
        self._require_bound()
        stage = self._stage(stage_id)
        lineage = list(lineage) if lineage is not None else stage["lineage"]
        if stage["complete"] and stage["lineage"] == lineage:
            return
        stage["complete"] = True
        stage["lineage"] = lineage
        self._write_manifest()

    def stage_entries(self, stage_id):
        """The manifest's partition entries for a stage (may be
        partial — a crash mid-stage leaves the committed prefix)."""
        self._require_bound()
        stage = self._manifest["stages"].get(str(stage_id))
        return dict(stage["partitions"]) if stage else {}

    def stage_complete(self, stage_id):
        self._require_bound()
        stage = self._manifest["stages"].get(str(stage_id))
        return bool(stage and stage.get("complete"))

    def restore_stage(self, stage_id, recovery_log=None):
        """Restore every checksum-valid partition of a stage.

        Returns ``{partition_index: Partition}`` for entries whose
        payload verifies (digest, length, and row count all match the
        manifest). Corrupt or missing entries are dropped from the
        manifest — with the integrity error (and its ``__cause__``
        chain) recorded on ``recovery_log`` — so the caller recomputes
        exactly those partitions from lineage.
        """
        self._require_bound()
        restored = {}
        dropped = []
        for key, entry in sorted(
            self.stage_entries(stage_id).items(), key=lambda kv: int(kv[0])
        ):
            index = int(key)
            try:
                restored[index] = self._verify_and_load(
                    stage_id, index, entry
                )
            except CheckpointIntegrityError as err:
                dropped.append(key)
                kind = ("missing" if isinstance(
                    err.__cause__, FileNotFoundError) else "corrupt")
                if kind == "missing":
                    self.missing_total += 1
                    self.metrics.counter("checkpoint_missing_total").inc()
                else:
                    self.corrupt_total += 1
                    self.metrics.counter("checkpoint_corrupt_total").inc()
                if recovery_log is not None:
                    recovery_log.record(
                        "checkpoint_invalid", stage=str(stage_id),
                        partition=index, kind=kind, error=str(err),
                        cause=type(err.__cause__).__name__
                        if err.__cause__ is not None else None,
                    )
        if dropped:
            stage = self._manifest["stages"].get(str(stage_id))
            for key in dropped:
                stage["partitions"].pop(key, None)
            stage["complete"] = False
            self._write_manifest()
        if restored:
            self.restore_total += len(restored)
            self.metrics.counter("restore_total").inc(len(restored))
        return restored

    def _verify_and_load(self, stage_id, index, entry):
        path = os.path.join(self._run_dir, entry["file"])
        try:
            with open(path, "rb") as handle:
                handle.seek(entry["offset"])
                payload = handle.read(entry["nbytes"])
        except FileNotFoundError as cause:
            raise CheckpointIntegrityError(
                f"stage {stage_id!r} partition {index}: payload file "
                f"{entry['file']} is missing",
                stage=str(stage_id), partition=index,
            ) from cause
        if len(payload) != entry["nbytes"]:
            raise CheckpointIntegrityError(
                f"stage {stage_id!r} partition {index}: payload is "
                f"{len(payload)} B, manifest says {entry['nbytes']} B "
                "(torn write)",
                stage=str(stage_id), partition=index,
            )
        digest = sha256_hex(payload)
        if digest != entry["sha256"]:
            raise CheckpointIntegrityError(
                f"stage {stage_id!r} partition {index}: SHA-256 mismatch "
                f"({digest[:12]}… != {entry['sha256'][:12]}…)",
                stage=str(stage_id), partition=index,
            )
        try:
            partition = decode_partition(index, payload)
        except CheckpointIntegrityError:
            raise
        except Exception as cause:
            raise CheckpointIntegrityError(
                f"stage {stage_id!r} partition {index}: payload failed "
                f"to decode: {cause}",
                stage=str(stage_id), partition=index,
            ) from cause
        if len(partition) != entry["num_rows"]:
            raise CheckpointIntegrityError(
                f"stage {stage_id!r} partition {index}: decoded "
                f"{len(partition)} rows, manifest says {entry['num_rows']}",
                stage=str(stage_id), partition=index,
            )
        return partition

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def valid_partition_count(self):
        """Manifest-level count of checkpointed partitions for the
        bound run — the resume-first policy's progress measure (files
        are verified lazily at restore time)."""
        self._require_bound()
        return sum(
            len(stage["partitions"])
            for stage in self._manifest["stages"].values()
        )

    def stages(self):
        self._require_bound()
        return sorted(self._manifest["stages"])

    def counters(self):
        """Flat dict of the store's counters (merged into
        ``WorkloadResult.metrics`` by the executor)."""
        return {
            "checkpoint_bytes": self.checkpoint_bytes,
            "checkpoint_partitions_total": self.checkpoint_partitions_total,
            "restore_total": self.restore_total,
            "recompute_total": self.recompute_total,
            "checkpoint_corrupt_total": self.corrupt_total,
            "checkpoint_missing_total": self.missing_total,
            "checkpoint_torn_manifest_total": self.torn_manifest_total,
            "checkpoint_reclaimed_tmp_total": self.reclaimed_tmp_total,
        }

    def saved_ratio(self):
        """Fraction of checkpoint-eligible partitions served from the
        store instead of recomputed: ``restore / (restore +
        recompute)``; 0.0 before any checkpointed stage ran."""
        total = self.restore_total + self.recompute_total
        return self.restore_total / total if total else 0.0

    def __repr__(self):
        return (
            f"<CheckpointStore {self.root} run={self.fingerprint} "
            f"restored={self.restore_total} "
            f"recomputed={self.recompute_total}>"
        )
