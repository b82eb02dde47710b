"""Durable checkpoint store for long materialization runs.

A feature-transfer run is a sequence of materialized stages (partial
CNN inference tables, ``f̂_l`` prefixes, vectorized train tables).
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
Every file — partition payloads and the manifest — is written with
the tmp + fsync + rename protocol: bytes go to ``<final>.tmp`` in the
same directory, are flushed and fsynced, then atomically ``os.replace``d
over the final name. A crash mid-write therefore leaves either the old
complete file or a stray ``*.tmp`` (reclaimed on the next
:meth:`CheckpointStore.bind_run`), never a half-written final file.
Torn manifests (truncated after a simulated fsync lie, or a seeded
``checkpoint-torn`` fault) are *detected* at bind time — the JSON no
longer parses or fails structural checks — and the run directory is
quarantined: all of its checkpoints are discarded and recovery falls
back to full lineage recompute rather than trusting unverifiable
state.

Integrity discipline
--------------------
Restore never trusts a file: the payload's SHA-256 is recomputed and
compared against the manifest digest, its length against the recorded
length, and its decoded row count against the recorded row count. Any
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

from repro.dataflow.columnar import ColumnarBlock, is_columnar_buffer
from repro.dataflow.partition import Partition
from repro.exceptions import CheckpointIntegrityError
from repro.metrics import NULL_METRICS

#: Manifest schema tag.
MANIFEST_SCHEMA = "ckpt/v1"
MANIFEST_NAME = "manifest.json"

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _safe(name):
    """Filesystem-safe form of a stage id (``infer:image->conv5+aj`` →
    ``infer-image-conv5-aj``)."""
    return _UNSAFE.sub("-", str(name)).strip("-")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path, data, fsync=True):
    """Write ``data`` to ``path`` via tmp + fsync + rename so a torn
    write can never masquerade as a complete file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(data)


def reclaim_tmp_files(directory):
    """Remove stray ``*.tmp`` files left by a mid-write crash; returns
    the reclaimed paths (resume reports them, tests assert none leak)."""
    reclaimed = []
    if not os.path.isdir(directory):
        return reclaimed
    for entry in sorted(os.listdir(directory)):
        if entry.endswith(".tmp"):
            path = os.path.join(directory, entry)
            os.remove(path)
            reclaimed.append(path)
    return reclaimed


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
    ``(stage, partition)``. Bind the store to a run with
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
    """

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
        fingerprint: reclaim stray tmp files from a mid-write crash,
        load the manifest, and quarantine the whole namespace if the
        manifest is torn. Returns self."""
        self.fingerprint = str(fingerprint)
        self._run_dir = os.path.join(self.root, self.fingerprint)
        os.makedirs(self._run_dir, exist_ok=True)
        reclaimed = reclaim_tmp_files(self._run_dir)
        self.reclaimed_tmp_total += len(reclaimed)
        try:
            self._manifest = self._load_manifest()
        except CheckpointIntegrityError:
            self._quarantine()
        return self

    def _manifest_path(self):
        return os.path.join(self._run_dir, MANIFEST_NAME)

    def _load_manifest(self):
        path = self._manifest_path()
        if not os.path.exists(path):
            return {"schema": MANIFEST_SCHEMA,
                    "fingerprint": self.fingerprint, "stages": {}}
        try:
            with open(path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as cause:
            raise CheckpointIntegrityError(
                f"torn manifest at {path}: {cause}"
            ) from cause
        if (manifest.get("schema") != MANIFEST_SCHEMA
                or manifest.get("fingerprint") != self.fingerprint
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
        for entry in os.listdir(self._run_dir):
            os.remove(os.path.join(self._run_dir, entry))
        self._manifest = {"schema": MANIFEST_SCHEMA,
                          "fingerprint": self.fingerprint, "stages": {}}

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
        atomic_write_bytes(path, payload, fsync=self.fsync)
        injector = self.fault_injector
        if injector is not None:
            injector.on_manifest_commit(path)

    # ------------------------------------------------------------------
    # stage API
    # ------------------------------------------------------------------
    def put_partition(self, stage_id, partition, wave=None):
        """Durably persist one committed partition: atomic payload
        write, SHA-256 digest into the manifest, atomic manifest
        rewrite — partition-granular durability, so a crash one wave
        later still finds this partition restorable."""
        self._require_bound()
        payload = encode_partition(partition)
        digest = sha256_hex(payload)
        filename = f"{_safe(stage_id)}__p{partition.index}.ckpt"
        path = os.path.join(self._run_dir, filename)
        atomic_write_bytes(path, payload, fsync=self.fsync)
        injector = self.fault_injector
        if injector is not None:
            injector.on_checkpoint_write(stage_id, partition.index, path)
        stage = self._manifest["stages"].setdefault(
            str(stage_id),
            {"partitions": {}, "complete": False, "lineage": None},
        )
        stage["partitions"][str(partition.index)] = {
            "file": filename,
            "sha256": digest,
            "nbytes": len(payload),
            "num_rows": len(partition),
            "wave": wave,
        }
        self._write_manifest()
        self.checkpoint_bytes += len(payload)
        self.checkpoint_partitions_total += 1
        self.recompute_total += 1
        self.metrics.counter("checkpoint_bytes_total").inc(len(payload))
        self.metrics.counter("checkpoint_partitions_total").inc()
        self.metrics.counter("recompute_total").inc()
        return digest

    def commit_stage(self, stage_id, lineage=None):
        """Mark a stage's checkpoint complete (every partition
        committed) and record its lineage tuple."""
        self._require_bound()
        stage = self._manifest["stages"].setdefault(
            str(stage_id),
            {"partitions": {}, "complete": False, "lineage": None},
        )
        stage["complete"] = True
        if lineage is not None:
            stage["lineage"] = list(lineage)
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
                payload = handle.read()
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
