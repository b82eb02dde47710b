"""Disk-backed feature store for pre-materialized CNN layers.

Appendix B: "a base layer can [be] pre-materialized before hand for
later use of exploring other layers". This module makes that workflow
a first-class component: materialized feature tables are persisted on
disk keyed by (model, layer, dataset fingerprint), so a later session
exploring higher layers starts from the stored base instead of raw
images.

Entries are zlib-compressed VCB1 buffers (one
:class:`~repro.dataflow.columnar.ColumnarBlock` per table) with a JSON
metadata sidecar; the fingerprint hashes record ids plus a sample of
image bytes, so a changed dataset never silently reuses stale features.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from repro.dataflow.columnar import ColumnarBlock


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

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _paths(self, model_name, layer, fingerprint):
        stem = f"{model_name}__{layer}__{fingerprint}"
        return self.root / f"{stem}.vcb.z", self.root / f"{stem}.json"

    def contains(self, model_name, layer, fingerprint):
        data_path, _ = self._paths(model_name, layer, fingerprint)
        return data_path.exists()

    def put(self, model_name, layer, fingerprint, rows):
        """Persist a materialized feature table (list of row dicts).

        Returns the stored payload size in bytes.
        """
        data_path, meta_path = self._paths(model_name, layer, fingerprint)
        block = ColumnarBlock.from_rows(rows)
        blob = zlib.compress(block.to_buffer(), 1)
        data_path.write_bytes(blob)
        meta_path.write_text(json.dumps({
            "model": model_name,
            "layer": layer,
            "fingerprint": fingerprint,
            "num_rows": block.num_rows,
            "stored_bytes": len(blob),
        }))
        return len(blob)

    def get(self, model_name, layer, fingerprint):
        """Load a stored feature table as one block, or None on a
        miss. A file that is not a complete VCB1 buffer raises."""
        data_path, _ = self._paths(model_name, layer, fingerprint)
        if not data_path.exists():
            self.misses += 1
            return None
        self.hits += 1
        return ColumnarBlock.from_buffer(
            zlib.decompress(data_path.read_bytes())
        )

    def metadata(self, model_name, layer, fingerprint):
        _, meta_path = self._paths(model_name, layer, fingerprint)
        if not meta_path.exists():
            return None
        return json.loads(meta_path.read_text())

    def entries(self):
        """Metadata of every stored entry."""
        return [
            json.loads(path.read_text())
            for path in sorted(self.root.glob("*.json"))
        ]

    def evict(self, model_name, layer, fingerprint):
        for path in self._paths(model_name, layer, fingerprint):
            if path.exists():
                path.unlink()

    def total_bytes(self):
        return sum(
            path.stat().st_size for path in self.root.glob("*.vcb.z")
        )

    def __repr__(self):
        return (
            f"<FeatureStore {self.root}: {len(self.entries())} entries, "
            f"{self.total_bytes()} B>"
        )
