"""The one durable store of stage outputs: checkpoints and features.

A feature-transfer run is a sequence of materialized stages (partial
CNN inference tables, ``f̂_l`` prefixes). The vectorized train tables
are a pool + concat of those and are rebuilt on resume, not stored.
This module makes stage outputs *durable artifacts* (DeepLens's
materialized-view stance, SystemML's lineage-backed intermediates) and
is the only one that knows their format. A namespace is a run
fingerprint, or one :class:`~repro.features.store.FeatureStore` entry,
and its wave files are the whole store: no side index names them.

Layout
------
The unit of durability is the committed task wave: one file,
``<stage>__<seq>.ckpt``, holding the wave's VCB1 payloads, then a JSON
footer (the stage, the wave's ``seq``, the lineage it was given, and
each partition's ``{offset, nbytes, sha256, num_rows}``), the footer's
SHA-256 and length, and :data:`WAVE_MAGIC`. It is written by
:func:`repro.atomic_io.atomic_write_bytes` (tmp + fsync + rename), and
its rename is the wave's commit point.
:meth:`CheckpointStore.bind_run` indexes a namespace from its footers,
the latest ``seq`` winning per stage and partition. It removes stray
``*.tmp`` files, files that are no wave of this layout, and waves that
later ones fully superseded; a wave whose footer fails its digest (a
torn or damaged file) is removed and counted as corrupt, so only its
partitions are recomputed.

Integrity
---------
Restore never trusts a payload: its bytes are read back and their
length, SHA-256, VCB1 decode and row count checked against the footer
entry. A mismatch counts on ``corrupt_total`` (or ``missing_total``
for a file gone since the bind), is logged as ``checkpoint_invalid``,
and the partition is recomputed from lineage: damage can cost
recompute time but never leak corrupt feature bytes into a train
table.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import re

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.dataflow.columnar import ColumnarBlock, is_columnar_buffer
from repro.dataflow.partition import Partition
from repro.exceptions import CheckpointIntegrityError
from repro.metrics import NULL_METRICS

#: Wave-footer schema tag; part of the run fingerprint, so a run
#: namespace written in another layout is never opened.
CHECKPOINT_SCHEMA = "ckpt/v4"
#: A wave file ends with its footer's SHA-256 (32 bytes), its length
#: (8 bytes, little-endian) and this tag.
WAVE_MAGIC = b"CKW1"
_TRAILER = 32 + 8 + len(WAVE_MAGIC)

_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]+")


def _safe(name):
    """Filesystem-safe form of a stage id (``infer:image->conv5+aj`` →
    ``infer-image-conv5-aj``)."""
    return _UNSAFE.sub("-", str(name)).strip("-")


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def _integrity_error(stage_id, index, problem):
    return CheckpointIntegrityError(
        f"stage {stage_id!r} partition {index}: {problem}",
        stage=str(stage_id), partition=index,
    )


def _json_bytes(value):
    return json.dumps(
        value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def run_fingerprint(model_name, model_seed, layers, dataset_fp, plan_label,
                    config, micro_batch=None):
    """Deterministic fingerprint of everything that shapes a stage
    output's bytes: the model identity, layer set, dataset, logical
    plan, the config knobs that change partition composition, and the
    rows per inference call (OpenBLAS's bits depend on the batch).
    Checkpoints are only ever restored into a run with the same
    fingerprint — a degraded plan, re-partitioned config or another
    micro-batch gets a fresh (empty) checkpoint namespace."""
    payload = json.dumps(
        {
            "schema": CHECKPOINT_SCHEMA,
            "model": model_name,
            "model_seed": model_seed,
            "micro_batch": micro_batch,
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
    subdirectory holding one file per committed wave. Bind the store
    to a run with :meth:`bind_run` before using the stage API; the
    resilient supervisor and the executor share one store object so
    the restore/recompute counters accumulate across resume attempts.

    Counters (also emitted on an attached metrics registry):

    - ``checkpoint_bytes``: payload bytes durably written;
    - ``checkpoint_partitions_total``: partitions written;
    - ``restore_total``: partitions restored (checksum-verified);
    - ``recompute_total``: partitions computed in checkpointed stages
      (fresh work — on a resume run, what the store could *not* save);
    - ``corrupt_total``: payloads and wave footers that failed
      verification;
    - ``missing_total``: indexed wave files that disappeared.

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
        #: ``{stage: {"partitions": {key: entry}, "files": set,
        #: "lineage": value}}`` of the bound namespace, from its footers.
        self._stages = None
        self._seq = 0
        self.checkpoint_bytes = 0
        self.checkpoint_partitions_total = 0
        self.restore_total = 0
        self.recompute_total = 0
        self.corrupt_total = 0
        self.missing_total = 0
        self.reclaimed_tmp_total = 0

    def attach_metrics(self, metrics):
        self.metrics = metrics if metrics is not None else NULL_METRICS
        return self

    # ------------------------------------------------------------------
    # run binding
    # ------------------------------------------------------------------
    def bind_run(self, fingerprint, recovery_log=None):
        """Open (or create) the namespace of one run fingerprint and
        index it from its wave footers; a torn wave is logged on
        ``recovery_log``. Returns self."""
        self.fingerprint = str(fingerprint)
        self._run_dir = os.path.join(self.root, self.fingerprint)
        os.makedirs(self._run_dir, exist_ok=True)
        reclaimed = reclaim_tmp_files(self._run_dir, io=self.io)
        self.reclaimed_tmp_total += len(reclaimed)
        self._stages, self._seq = {}, 0
        waves = []
        for name in self.io.listdir(self._run_dir):
            try:
                footer = self._read_footer(name)
            except CheckpointIntegrityError as err:
                footer = None
                self._invalid(err, recovery_log)
            if footer is None:
                self.io.remove(os.path.join(self._run_dir, name))
            else:
                waves.append((footer["seq"], name, footer))
        for seq, name, footer in sorted(waves, key=lambda wave: wave[0]):
            self._seq = seq
            self._adopt(name, footer)
        self._drop_superseded(self._stages)
        return self

    def _read_footer(self, name):
        """The footer of wave file ``name``, or None for a file that is
        no wave of this layout; raises if a wave's footer fails its
        digest."""
        if not name.endswith(".ckpt"):
            return None
        with open(os.path.join(self._run_dir, name), "rb") as handle:
            end = handle.seek(0, os.SEEK_END) - _TRAILER
            handle.seek(max(0, end))
            trailer = handle.read()
            length = int.from_bytes(trailer[-12:-4], "little")
            footer = b""
            if trailer.endswith(WAVE_MAGIC) and length <= end:
                handle.seek(end - length)
                footer = handle.read(length)
        if hashlib.sha256(footer).digest() != trailer[:32]:
            raise CheckpointIntegrityError(
                f"wave file {name}: footer fails its digest (torn write)")
        footer = json.loads(footer)
        return footer if footer["schema"] == CHECKPOINT_SCHEMA else None

    def _adopt(self, filename, footer):
        """Index a committed wave: its entries supersede the stage's
        older ones."""
        stage = self._stages.setdefault(
            footer["stage"], {"partitions": {}, "files": set(),
                              "lineage": None})
        stage["files"].add(filename)
        if footer["lineage"] is not None:
            stage["lineage"] = footer["lineage"]
        for key, entry in footer["partitions"].items():
            stage["partitions"][key] = dict(entry, file=filename)

    def _drop_superseded(self, stage_ids):
        """Remove the stages' wave files no partition entry names any
        more: later waves recomputed all of their partitions."""
        for stage_id in stage_ids:
            stage = self._stages.get(stage_id)
            if stage is None:
                continue
            live = {entry["file"] for entry in stage["partitions"].values()}
            for name in sorted(stage["files"] - live):
                self.io.remove(os.path.join(self._run_dir, name))
            stage["files"] = live

    def _clear(self):
        """Remove every file of the bound namespace and start it
        empty."""
        for name in self.io.listdir(self._run_dir):
            self.io.remove(os.path.join(self._run_dir, name))
        self._stages, self._seq = {}, 0

    def _require_bound(self):
        if self._stages is None:
            raise RuntimeError(
                "CheckpointStore is not bound to a run; call bind_run()"
            )

    # ------------------------------------------------------------------
    # stage API
    # ------------------------------------------------------------------
    def put_partition(self, stage_id, partitions, lineage=None):
        """Durably persist one committed wave of a stage as one new wave
        file: its payloads, then the footer that locates them and
        carries ``lineage`` (any JSON value). The file's rename is the
        wave's commit point."""
        self._require_bound()
        self._seq += 1
        filename = f"{_safe(stage_id)}__{self._seq}.ckpt"
        path = os.path.join(self._run_dir, filename)
        payloads = [encode_partition(partition) for partition in partitions]
        offsets = itertools.accumulate(map(len, payloads), initial=0)
        footer = {
            "schema": CHECKPOINT_SCHEMA, "seq": self._seq,
            "stage": str(stage_id), "lineage": lineage,
            "partitions": {
                str(partition.index): {
                    "offset": offset, "nbytes": len(payload),
                    "sha256": sha256_hex(payload),
                    "num_rows": len(partition),
                }
                for partition, payload, offset in zip(partitions, payloads,
                                                      offsets)
            },
        }
        footer_bytes = _json_bytes(footer)
        nbytes = atomic_write_bytes(
            path,
            b"".join([*payloads, footer_bytes,
                      hashlib.sha256(footer_bytes).digest(),
                      len(footer_bytes).to_bytes(8, "little"), WAVE_MAGIC]),
            fsync=self.fsync, io=self.io,
        )
        self._adopt(filename, json.loads(footer_bytes))
        if self.fault_injector is not None:
            self.fault_injector.on_checkpoint_write(
                stage_id, path, footer["partitions"])
        self.checkpoint_bytes += nbytes
        self.checkpoint_partitions_total += len(payloads)
        self.recompute_total += len(payloads)
        self.metrics.counter("checkpoint_bytes_total").inc(nbytes)
        self.metrics.counter("checkpoint_partitions_total").inc(len(payloads))
        self.metrics.counter("recompute_total").inc(len(payloads))

    def commit_stage(self, stage_id):
        """Every partition of the stage is committed. Nothing is written
        — each wave's rename committed it — but the stage's wave files
        that later waves fully superseded are removed."""
        self._require_bound()
        self._drop_superseded([str(stage_id)])

    def stage_entries(self, stage_id):
        """The stage's indexed partition entries (may be partial — a
        crash mid-stage leaves the committed prefix)."""
        self._require_bound()
        stage = self._stages.get(str(stage_id))
        return dict(stage["partitions"]) if stage else {}

    def restore_stage(self, stage_id, recovery_log=None):
        """Restore every checksum-valid partition of a stage.

        Returns ``{partition_index: Partition}`` for entries whose
        payload verifies (digest, length, and row count all match the
        footer). Corrupt or missing entries are dropped from the index
        — with the integrity error (and its ``__cause__`` chain)
        recorded on ``recovery_log`` — so the caller recomputes exactly
        those partitions from lineage, and their new wave supersedes
        the damaged entries.
        """
        self._require_bound()
        restored = {}
        for key, entry in sorted(
            self.stage_entries(stage_id).items(), key=lambda kv: int(kv[0])
        ):
            index = int(key)
            try:
                restored[index] = self._verify_and_load(
                    stage_id, index, entry
                )
            except CheckpointIntegrityError as err:
                del self._stages[str(stage_id)]["partitions"][key]
                self._invalid(err, recovery_log)
        if restored:
            self.restore_total += len(restored)
            self.metrics.counter("restore_total").inc(len(restored))
        return restored

    def reject_partition(self, stage_id, index, problem, recovery_log=None):
        """A partition :meth:`restore_stage` returned failed the caller's
        own check (``problem`` says which): it counts as corrupt, not
        restored, and the wave that recomputes it supersedes its entry."""
        self.restore_total -= 1
        self.metrics.counter("restore_total").inc(-1)
        self._invalid(_integrity_error(stage_id, index, problem),
                      recovery_log)

    def _invalid(self, err, recovery_log):
        kind = ("missing" if isinstance(err.__cause__, FileNotFoundError)
                else "corrupt")
        if kind == "missing":
            self.missing_total += 1
            self.metrics.counter("checkpoint_missing_total").inc()
        else:
            self.corrupt_total += 1
            self.metrics.counter("checkpoint_corrupt_total").inc()
        if recovery_log is not None:
            recovery_log.record(
                "checkpoint_invalid", stage=err.stage,
                partition=err.partition, kind=kind, error=str(err),
                cause=type(err.__cause__).__name__
                if err.__cause__ is not None else None,
            )

    def _verify_and_load(self, stage_id, index, entry):
        fail = functools.partial(_integrity_error, stage_id, index)
        try:
            with open(os.path.join(self._run_dir, entry["file"]),
                      "rb") as handle:
                handle.seek(entry["offset"])
                payload = handle.read(entry["nbytes"])
        except FileNotFoundError as cause:
            raise fail(f"payload file {entry['file']} is missing") from cause
        if len(payload) != entry["nbytes"]:
            raise fail(f"payload is {len(payload)} B, footer says "
                       f"{entry['nbytes']} B (torn write)")
        digest = sha256_hex(payload)
        if digest != entry["sha256"]:
            raise fail(f"SHA-256 mismatch ({digest[:12]}… != "
                       f"{entry['sha256'][:12]}…)")
        try:
            partition = decode_partition(index, payload)
        except CheckpointIntegrityError:
            raise
        except Exception as cause:
            raise fail(f"payload failed to decode: {cause}") from cause
        if len(partition) != entry["num_rows"]:
            raise fail(f"decoded {len(partition)} rows, footer says "
                       f"{entry['num_rows']}")
        return partition

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def valid_partition_count(self):
        """Indexed partitions whose wave file is still on disk with a
        footer that verifies — what the next :meth:`bind_run` indexes,
        less the entries a restore already rejected. The resume-first
        policy's progress measure: a wave torn or deleted after it
        landed counts nothing (payloads are verified lazily at restore
        time)."""
        self._require_bound()
        intact = set()
        for name in self.io.listdir(self._run_dir):
            try:
                if self._read_footer(name) is not None:
                    intact.add(name)
            except CheckpointIntegrityError:
                pass
        return sum(entry["file"] in intact
                   for stage in self._stages.values()
                   for entry in stage["partitions"].values())

    def stages(self):
        self._require_bound()
        return sorted(self._stages)

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
