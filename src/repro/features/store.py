"""Disk-backed feature store for pre-materialized CNN layers.

Appendix B: "a base layer can [be] pre-materialized before hand for
later use of exploring other layers". Materialized feature tables are
persisted keyed by (model, layer, dataset fingerprint), so a later
session exploring higher layers starts from the stored base instead of
raw images. The fingerprint hashes record ids plus a sample of image
bytes, so a changed dataset never silently reuses stale features.

The durable format is :mod:`repro.recovery.store`'s and nothing else:
this module only names its entries.
"""

from __future__ import annotations

import zlib
from pathlib import Path

import numpy as np

from repro.dataflow.columnar import ColumnarBlock
from repro.dataflow.partition import Partition
from repro.recovery.store import CheckpointStore, reclaim_tmp_files


def dataset_fingerprint(dataset):
    """Stable fingerprint of a multimodal dataset: record count, ids,
    and the bytes of a deterministic sample of 16 images."""
    ids = dataset.t_img.column("id")
    crc = zlib.crc32(ids.tobytes())
    step = max(1, len(ids) // 16)
    for image in dataset.t_img.column("image")[::step]:
        crc = zlib.crc32(np.ascontiguousarray(image).tobytes(), crc)
    return f"{len(ids)}-{crc:08x}"


def _namespace(model_name, layer, fingerprint):
    return f"{model_name}__{layer}__{fingerprint}"


class FeatureStore(CheckpointStore):
    """Stores materialized feature-layer tables on disk.

    An entry is a checkpoint namespace of its own holding one stage of
    the same name: partition 0 is the whole table, one wave whose
    footer's lineage is the entry's record — the key, plus the
    micro-batch (rows per inference call; OpenBLAS's bits depend on it)
    and the model seed the features were computed under. Opening the
    store reclaims the ``*.tmp`` file a killed ``put`` left.
    """

    def __init__(self, root):
        super().__init__(root)
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        for path in self.root.iterdir():
            self.reclaimed_tmp_total += len(reclaim_tmp_files(path))

    def _record(self, namespace, micro_batch=None, model_seed=None):
        """Bind ``namespace``; its entry's metadata, or None: no entry
        (a wave whose footer fails its digest is none: the bind counts
        and removes it), or one computed under a micro-batch or model
        seed other than the reader's (an entry or a reader that names
        none matches any)."""
        if not (self.root / namespace).is_dir():
            return None
        self.bind_run(namespace)
        stage = self._stages.get(namespace)
        record = stage["lineage"] if stage else None
        if record is None:
            return None
        for name, wanted in (("micro_batch", micro_batch),
                             ("model_seed", model_seed)):
            if None not in (record[name], wanted) and record[name] != wanted:
                return None
        entry = stage["partitions"]["0"]
        return dict(record, num_rows=entry["num_rows"],
                    stored_bytes=entry["nbytes"], sha256=entry["sha256"])

    def contains(self, model_name, layer, fingerprint):
        return self.metadata(model_name, layer, fingerprint) is not None

    def put(self, model_name, layer, fingerprint, rows, micro_batch=None,
            model_seed=None):
        """Persist a materialized feature table (list of row dicts),
        computed ``micro_batch`` rows per inference call by a model
        whose weights were drawn from ``model_seed``, when given.

        The old entry is evicted first, so an overwrite is a miss until
        the new wave's rename commits it. Returns the stored payload
        size in bytes.
        """
        namespace = _namespace(model_name, layer, fingerprint)
        self.evict(model_name, layer, fingerprint)
        block = ColumnarBlock.from_rows(rows)
        self.put_partition(namespace, [Partition.from_block(0, block)],
                           lineage={
            "model": model_name, "layer": layer,
            "fingerprint": fingerprint, "micro_batch": micro_batch,
            "model_seed": model_seed,
        })
        return self.stage_entries(namespace)["0"]["nbytes"]

    def get(self, model_name, layer, fingerprint, micro_batch=None,
            model_seed=None):
        """Load a stored feature table as one block, or None on a
        miss. A payload that is not what the entry's footer committed
        (cut short, altered, not VCB1) raises
        :class:`~repro.exceptions.CheckpointIntegrityError`."""
        namespace = _namespace(model_name, layer, fingerprint)
        if self._record(namespace, micro_batch, model_seed) is None:
            self.misses += 1
            return None
        entry = self.stage_entries(namespace)["0"]
        block = self._verify_and_load(namespace, 0, entry).block()
        self.hits += 1
        return block

    def metadata(self, model_name, layer, fingerprint, micro_batch=None,
                 model_seed=None):
        """The entry's metadata, or None (see :meth:`_record`)."""
        return self._record(_namespace(model_name, layer, fingerprint),
                            micro_batch, model_seed)

    def entries(self):
        """Metadata of every committed entry."""
        records = (self._record(path.name)
                   for path in sorted(self.root.iterdir()))
        return [record for record in records if record is not None]

    def evict(self, model_name, layer, fingerprint):
        """Remove the entry's files; leaves its namespace bound."""
        self.bind_run(_namespace(model_name, layer, fingerprint))
        self._clear()

    def total_bytes(self):
        return sum(record["stored_bytes"] for record in self.entries())

    def __repr__(self):
        return (
            f"<FeatureStore {self.root}: {len(self.entries())} entries, "
            f"{self.total_bytes()} B>"
        )
