"""Data partitions with deserialized and serialized representations.

Section 4.2.3: in-memory intermediate data persists either
*deserialized* (live objects; fast, large) or *serialized* (one byte
buffer; smaller, pays translation CPU). The deserialized payload is a
:class:`~repro.dataflow.columnar.ColumnarBlock`, consumed zero-copy and
sized exactly; the serialized payload is its single-buffer VCB1
encoding, smaller by the zeros ReLU leaves in feature tensors (Appendix
A) and with no compressor on the way (EXPERIMENTS.md).
"""

from __future__ import annotations

from repro.dataflow.columnar import ColumnarBlock, buffer_header

DESERIALIZED = "deserialized"
SERIALIZED = "serialized"


class Partition:
    """One partition of a distributed table: a columnar block
    (deserialized), or only its VCB1 blob (serialized), which every
    ``block()`` call decodes afresh — the decoded block lives as long as
    its reader holds it, never in the partition."""

    def __init__(self, index, block=None, blob=None):
        if block is None and blob is None:
            raise ValueError("a partition needs a block or a blob")
        self.index = index
        self._block = block
        self._blob = blob
        self.serialize_count = 0
        self.deserialize_count = 0

    @classmethod
    def from_rows(cls, index, rows):
        """Pack row dicts into a columnar partition; raises
        :class:`~repro.dataflow.columnar.NotColumnar` when they do not
        share one schema."""
        return cls(index, block=ColumnarBlock.from_rows(rows))

    @classmethod
    def from_block(cls, index, block):
        return cls(index, block=block)

    @property
    def serialized(self):
        """True iff the partition holds only its blob."""
        return self._block is None

    def __len__(self):
        if self._block is None:
            return buffer_header(self._blob)[0]["n"]
        return self._block.num_rows

    def block(self):
        """The columnar payload. A serialized partition decodes its
        blob (counted as one deserialization) and keeps nothing."""
        if self._block is not None:
            return self._block
        self.deserialize_count += 1
        return ColumnarBlock.from_buffer(self._blob)

    def rows(self):
        """Row dicts — a fresh row view of the block per call."""
        return self.block().to_rows()

    def serialized_blob(self):
        """The wire form: the block's single-buffer VCB1 encoding (one
        header + column buffers)."""
        if self._blob is None:
            self._blob = self._block.to_buffer()
            self.serialize_count += 1
        return self._blob

    def drop_rows(self):
        """Keep only the serialized representation (after ensuring it
        exists); models storing a partition in serialized format."""
        self.serialized_blob()
        self._block = None

    def memory_bytes(self, persistence=DESERIALIZED):
        """In-memory footprint under a persistence format: the blob
        length when serialized, the block's exact
        buffer bytes (:attr:`ColumnarBlock.nbytes`) when deserialized.
        """
        if persistence == SERIALIZED:
            return len(self.serialized_blob())
        return self.block().nbytes

    def __repr__(self):
        form = "blob" if self._block is None else "block"
        return f"<Partition {self.index}: {len(self)} rows, {form}>"


class StoredPartition:
    """A cached table's partition: its key and the Storage region that
    holds it. Every read is a ``StorageManager.get``."""

    __slots__ = ("index", "key", "storage", "num_rows", "nbytes")

    def __init__(self, partition, key, storage):
        self.index = partition.index
        self.key = key
        self.storage = storage
        self.num_rows = len(partition)
        self.nbytes = partition.block().nbytes

    def block(self):
        partition = self.storage.get(self.key)
        if partition is None:
            raise LookupError(f"partition {self.key} is not cached")
        return partition.block()

    def __len__(self):
        return self.num_rows

    def memory_bytes(self):
        """The deserialized bytes, counted when it was cached."""
        return self.nbytes
