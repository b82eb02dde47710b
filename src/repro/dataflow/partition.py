"""Data partitions with deserialized and serialized representations.

Section 4.2.3: the persistence format for in-memory intermediate data
is either *deserialized* (live objects; fast, large) or *serialized*
(one byte buffer; smaller, pays translation CPU). Partitions support
both, report their size under each, and count how many times they were
converted so benchmarks can attribute serialization overhead.

The deserialized payload is a
:class:`~repro.dataflow.columnar.ColumnarBlock` — one contiguous array
per column, which batched inference, pooling, and vectorized joins
consume zero-copy, and whose ``memory_bytes`` is *exact* (real buffer
sizes). The serialized payload is that block's single-buffer VCB1
encoding and nothing else: smaller by the zeros ReLU leaves in feature
tensors (Appendix A), never more than a header larger, and with no
compressor on the way — deflate cost ~30 MB/s to find 7 % in dense
float mantissas (EXPERIMENTS.md). ``rows()`` is the row-dict view
per-row UDFs and ``collect`` read.
"""

from __future__ import annotations

from repro.dataflow.columnar import ColumnarBlock

DESERIALIZED = "deserialized"
SERIALIZED = "serialized"


class Partition:
    """One partition of a distributed table.

    Holds a columnar block, its VCB1 blob, or both (a blob with a
    decoded cache). ``block()`` returns the block, decoding the
    blob if that is all we hold; ``rows()`` materializes row views of
    it.
    """

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

    def __len__(self):
        return self.block().num_rows

    def block(self):
        """The columnar payload. Decodes the blob on demand (counted
        as one deserialization)."""
        if self._block is None:
            self._block = ColumnarBlock.from_buffer(self._blob)
            self.deserialize_count += 1
        return self._block

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

    def drop_blob(self):
        """Keep only the deserialized payload."""
        self.block()
        self._blob = None

    def memory_bytes(self, persistence=DESERIALIZED):
        """In-memory footprint under a persistence format: the blob
        length when serialized, the block's exact
        buffer bytes (:attr:`ColumnarBlock.nbytes`) when deserialized.
        """
        if persistence == SERIALIZED:
            return len(self.serialized_blob())
        return self.block().nbytes

    def __repr__(self):
        state = []
        if self._block is not None:
            state.append(f"{self._block.num_rows} rows")
        if self._blob is not None:
            state.append(f"{len(self._blob)}B blob")
        return f"<Partition {self.index}: {', '.join(state)}>"
