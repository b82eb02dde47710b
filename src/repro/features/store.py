"""Disk-backed feature store for pre-materialized CNN layers.

Appendix B: "a base layer can [be] pre-materialized before hand for
later use of exploring other layers". This module makes that workflow
a first-class component: materialized feature tables are persisted on
disk keyed by (model, layer, dataset fingerprint), so a later session
exploring higher layers starts from the stored base instead of raw
images.

An entry is one VCB1 buffer (one
:class:`~repro.dataflow.columnar.ColumnarBlock` per table) plus the
JSON metadata that commits it — data, then metadata, both through
:mod:`repro.atomic_io`; ``get`` verifies the committed length and
SHA-256. The fingerprint hashes record ids plus a sample of
image bytes, so a changed dataset never silently reuses stale features.
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

import numpy as np

from repro.atomic_io import atomic_write_bytes, reclaim_tmp_files
from repro.dataflow.columnar import ColumnarBlock
from repro.recovery.store import sha256_hex


def dataset_fingerprint(dataset, sample_size=16):
    """Stable fingerprint of a multimodal dataset: record count, ids,
    and a deterministic sample of image bytes."""
    ids = [row["id"] for row in dataset.image_rows]
    crc = zlib.crc32(np.asarray(ids, dtype=np.int64).tobytes())
    step = max(1, len(ids) // sample_size)
    for row in dataset.image_rows[::step]:
        crc = zlib.crc32(np.ascontiguousarray(row["image"]).tobytes(), crc)
    return f"{len(ids)}-{crc:08x}"


class FeatureStore:
    """Stores materialized feature-layer tables on disk."""

    #: The syscall shim every write goes through (:mod:`repro.atomic_io`);
    #: tests replace it on an instance.
    io = os

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        reclaim_tmp_files(self.root)
        self.hits = 0
        self.misses = 0

    def _paths(self, model_name, layer, fingerprint):
        stem = f"{model_name}__{layer}__{fingerprint}"
        return self.root / f"{stem}.vcb", self.root / f"{stem}.json"

    def contains(self, model_name, layer, fingerprint):
        return self.metadata(model_name, layer, fingerprint) is not None

    def put(self, model_name, layer, fingerprint, rows):
        """Persist a materialized feature table (list of row dicts).

        The entry exists once its metadata does: a crash before that
        leaves a miss. Returns the stored payload size in bytes.
        """
        data_path, meta_path = self._paths(model_name, layer, fingerprint)
        block = ColumnarBlock.from_rows(rows)
        blob = block.to_buffer()
        if meta_path.exists():   # an overwrite is a miss until it commits
            self.io.remove(meta_path)
        atomic_write_bytes(data_path, blob, io=self.io)
        atomic_write_bytes(meta_path, json.dumps({
            "model": model_name,
            "layer": layer,
            "fingerprint": fingerprint,
            "num_rows": block.num_rows,
            "stored_bytes": len(blob),
            "sha256": sha256_hex(blob),
        }).encode("utf-8"), io=self.io)
        return len(blob)

    def get(self, model_name, layer, fingerprint):
        """Load a stored feature table as one block, or None on a
        miss. Data that is not what the entry's metadata committed
        (missing, truncated, altered) raises :class:`ValueError`."""
        meta = self.metadata(model_name, layer, fingerprint)
        if meta is None:
            self.misses += 1
            return None
        data_path, _ = self._paths(model_name, layer, fingerprint)
        blob = data_path.read_bytes() if data_path.exists() else b""
        if (len(blob) != meta["stored_bytes"]
                or sha256_hex(blob) != meta["sha256"]):
            raise ValueError(
                f"feature store entry {data_path.name} ({len(blob)} bytes) "
                f"is not the data its metadata committed"
            )
        self.hits += 1
        return ColumnarBlock.from_buffer(blob)

    def metadata(self, model_name, layer, fingerprint):
        """The entry's commit record, or None: no record, or a stale
        one from before records carried a digest (``put`` rewrites)."""
        _, meta_path = self._paths(model_name, layer, fingerprint)
        if not meta_path.exists():
            return None
        meta = json.loads(meta_path.read_text())
        return meta if "sha256" in meta else None

    def entries(self):
        """Metadata of every stored entry."""
        return [
            json.loads(path.read_text())
            for path in sorted(self.root.glob("*.json"))
        ]

    def evict(self, model_name, layer, fingerprint):
        # metadata first: from then on the entry is a miss
        for path in reversed(self._paths(model_name, layer, fingerprint)):
            if path.exists():
                path.unlink()

    def total_bytes(self):
        return sum(
            path.stat().st_size for path in self.root.glob("*.vcb")
        )

    def __repr__(self):
        return (
            f"<FeatureStore {self.root}: {len(self.entries())} entries, "
            f"{self.total_bytes()} B>"
        )
