"""Columnar, tensor-native partition payloads.

:class:`ColumnarBlock` is the one in-engine representation of a
partition (TQP/SystemML-style tensor-native blocks): every operator
reads blocks and builds blocks, so batched stages never pack rows into
a batch or split a batch back into rows, and serialization is one
buffer instead of N pickles.

- one contiguous numpy array per column, with the row axis first —
  numeric scalar columns as ``(N,)`` arrays, tensor columns as one
  ``(N, H, W, C)`` or ``(N, D)`` block;
- an *object* column (a plain list) only where values cannot form one
  block: ragged tensors, :class:`~repro.tensor.tensorlist.TensorList`
  members, strings, Nones;
- row dicts exist only as views at the user boundary
  (:meth:`ColumnarBlock.from_rows` in, :meth:`ColumnarBlock.to_rows`
  out) — scalar cells come back as Python scalars and tensor cells as
  zero-copy row views into the block. Rows that do not share one
  schema are rejected with :class:`NotColumnar`.

The zero-copy contract consumers rely on:

- ``column(name)`` returns the stored array itself, never a copy —
  batched inference, pooling, and vectorized joins read it in place;
- ``to_rows()`` row views alias the column buffers;
- ``from_buffer(to_buffer(...))`` reconstructs array columns with
  ``np.frombuffer`` over the blob (read-only views, no re-pickle).

Consumers must therefore never mutate a column or a row view in
place; every engine operator builds fresh output blocks instead.
Blocks are immutable values, which is what lets an operator that only
passes a column along (``select``, the probe side of a fully matched
join) hand the *same* memory to its output block — as a read-only
view where the source array is writable, so a stray write raises
rather than reaching the source table.

Sizing is exact: :attr:`ColumnarBlock.nbytes` sums the real buffer
sizes (object-column members use the Appendix A per-value estimator).
The wire format (:meth:`to_buffer`) is a single buffer — one JSON
header plus the column buffers back to back — deterministic and
pickle-free for array-only blocks, which is every block a
single-image workload produces. A mostly-zero float column (a ReLU
feature tensor, Appendix A) is written as a bitmap of its non-zero
elements plus those elements; nothing else compresses — every
serialized form in the engine is this buffer and nothing around it.
"""

from __future__ import annotations

import json
import math
import pickle

import numpy as np

from repro.dataflow.record import _VAR_HEADER, estimate_value_bytes

#: Wire-format magic for a single-buffer columnar blob (version 1).
MAGIC = b"VCB1"


def _scatter(raw, dtype, shape, name):
    """A ``sparse`` column payload (the packed bitmap of the non-zero
    elements, then those elements) as a fresh read-only array."""
    size = math.prod(shape)
    mask_len = -(-size // 8)
    # positions, not a boolean mask: 4x faster to scatter through
    index = np.flatnonzero(np.unpackbits(
        np.frombuffer(raw[:mask_len], dtype=np.uint8), count=size
    ).view(np.bool_))
    if len(raw) - mask_len != index.size * dtype.itemsize:
        raise ValueError(f"sparse column {name!r}: bitmap and values disagree")
    dense = np.zeros(size, dtype=f"u{dtype.itemsize}")
    dense[index] = np.frombuffer(raw[mask_len:], dtype=dense.dtype)
    dense.flags.writeable = False
    return dense.view(dtype).reshape(shape)


class NotColumnar(TypeError):
    """Rows cannot be packed into one columnar block (non-uniform
    schema or an unsupported value type)."""


def _classify(values):
    """Pack one column's values into an array when possible, else keep
    them as an object column (a plain list)."""
    first = values[0]
    if isinstance(first, np.ndarray) and first.ndim >= 1:
        shape, dtype = first.shape, first.dtype
        if all(
            isinstance(v, np.ndarray)
            and v.shape == shape and v.dtype == dtype
            for v in values
        ):
            return np.stack(values)
        return list(values)
    if isinstance(first, bool) or isinstance(first, np.bool_):
        if all(isinstance(v, (bool, np.bool_)) for v in values):
            return np.asarray(values, dtype=np.bool_)
        return list(values)
    if isinstance(first, (int, np.integer)):
        if all(
            isinstance(v, (int, np.integer))
            and not isinstance(v, (bool, np.bool_))
            for v in values
        ):
            try:
                return np.asarray(values, dtype=np.int64)
            except OverflowError:
                return list(values)
        return list(values)
    if isinstance(first, (float, np.floating)):
        if all(isinstance(v, (float, np.floating)) for v in values):
            return np.asarray(values, dtype=np.float64)
        return list(values)
    return list(values)


def pack_column(values):
    """Public entry to the column classifier: pack a list of cell
    values into an array column when they are homogeneous, else return
    them as an object column (the list itself)."""
    if not values:
        return []
    return _classify(list(values))


class ColumnarBlock:
    """One partition's payload in columnar, tensor-native layout.

    ``columns`` maps field name to either a numpy array whose first
    axis is the row axis, or a list (an object column). Column
    insertion order is the field order row views see.
    """

    __slots__ = ("_columns", "_num_rows", "_nbytes")

    def __init__(self, columns, num_rows):
        self._columns = dict(columns)
        self._num_rows = int(num_rows)
        self._nbytes = None
        for name, column in self._columns.items():
            length = (
                column.shape[0] if isinstance(column, np.ndarray)
                else len(column)
            )
            if length != self._num_rows:
                raise ValueError(
                    f"column {name!r} has {length} rows, expected "
                    f"{self._num_rows}"
                )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows):
        """Pack uniform-schema row dicts into one block.

        Raises :class:`NotColumnar` when the rows are not dicts
        sharing one field set.
        """
        rows = list(rows)
        if not rows:
            return cls({}, 0)
        first = rows[0]
        if not isinstance(first, dict):
            raise NotColumnar("rows must be dicts")
        names = list(first)
        fields = set(names)
        for row in rows:
            if not isinstance(row, dict) or set(row) != fields:
                raise NotColumnar("rows do not share a uniform schema")
        columns = {
            name: _classify([row[name] for row in rows]) for name in names
        }
        return cls(columns, len(rows))

    @classmethod
    def empty(cls):
        return cls({}, 0)

    # ------------------------------------------------------------------
    # shape / access
    # ------------------------------------------------------------------
    @property
    def num_rows(self):
        return self._num_rows

    def __len__(self):
        return self._num_rows

    @property
    def column_names(self):
        return list(self._columns)

    def has_column(self, name):
        return name in self._columns

    def column(self, name):
        """The stored column itself — an array (row axis first) or an
        object list. Zero-copy: callers must not mutate it."""
        return self._columns[name]

    def is_array(self, name):
        return isinstance(self._columns[name], np.ndarray)

    def to_rows(self):
        """Materialize row dicts (the view per-row UDFs and
        ``collect`` see).

        Scalar columns come back as Python scalars (``tolist``);
        tensor columns come back as zero-copy row views.
        """
        if self._num_rows == 0:
            return []
        per_column = {}
        for name, column in self._columns.items():
            if isinstance(column, np.ndarray):
                per_column[name] = (
                    column.tolist() if column.ndim == 1 else list(column)
                )
            else:
                per_column[name] = column
        names = list(self._columns)
        return [
            {name: per_column[name][i] for name in names}
            for i in range(self._num_rows)
        ]

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    @property
    def nbytes(self):
        """Exact in-memory payload bytes: real buffer sizes for array
        columns; the Appendix A per-value estimate (plus an 8-byte
        slot, mirroring Tungsten's variable-length header) for object
        column members."""
        if self._nbytes is None:
            total = 0
            for column in self._columns.values():
                if isinstance(column, np.ndarray):
                    total += int(column.nbytes)
                else:
                    total += sum(
                        _VAR_HEADER + estimate_value_bytes(value)
                        for value in column
                    )
            self._nbytes = total
        return self._nbytes

    # ------------------------------------------------------------------
    # vectorized structural ops
    # ------------------------------------------------------------------
    def take(self, indices):
        """Gather rows by position into a new block (one fancy-index
        per column — no per-row Python loop for array columns).

        Always a copy: fancy indexing never aliases, whatever the
        indices are, so a caller that knows its gather is the identity
        should share the columns instead (blocks are immutable — the
        local hash join does, see ``dataflow/joins.py``). Blocks built
        by :meth:`select`, by that join and by :meth:`from_buffer`
        alias other blocks' or a blob's memory; ``take`` and
        :meth:`concat` never do."""
        indices = np.asarray(indices, dtype=np.intp)
        columns = {}
        for name, column in self._columns.items():
            if isinstance(column, np.ndarray):
                columns[name] = column[indices]
            else:
                columns[name] = [column[i] for i in indices]
        return ColumnarBlock(columns, len(indices))

    def select(self, names):
        """Keep only ``names`` (column order follows ``names``)."""
        return ColumnarBlock(
            {name: self._columns[name] for name in names}, self._num_rows
        )

    @classmethod
    def concat(cls, blocks):
        """Concatenate blocks row-wise (schemas must match; empty
        blocks are skipped)."""
        blocks = [b for b in blocks if b.num_rows]
        if not blocks:
            return cls.empty()
        names = blocks[0].column_names
        for block in blocks[1:]:
            if block.column_names != names:
                raise NotColumnar(
                    "cannot concat blocks with different schemas"
                )
        columns = {}
        for name in names:
            parts = [b.column(name) for b in blocks]
            if all(isinstance(p, np.ndarray) for p in parts):
                columns[name] = np.concatenate(parts)
            else:
                merged = []
                for part in parts:
                    merged.extend(
                        list(part) if isinstance(part, np.ndarray) else part
                    )
                columns[name] = merged
        return cls(columns, sum(b.num_rows for b in blocks))

    # ------------------------------------------------------------------
    # single-buffer wire format
    # ------------------------------------------------------------------
    def to_buffer(self):
        """Encode as one buffer: ``MAGIC | u32 header_len | header
        (JSON) | column buffers`` — array columns as raw C-contiguous
        bytes, object columns as one pickle each; a float column goes
        ``sparse`` (packed non-zero bitmap, then the non-zero elements)
        iff that is at most 3/4 of its raw bytes. Deterministic for
        array-only blocks (fixed JSON key order, raw buffers)."""
        header_cols = []
        buffers = []
        for name, column in self._columns.items():
            if isinstance(column, np.ndarray):
                kind = "array"
                parts = [np.ascontiguousarray(column).reshape(-1)]
                if column.dtype.kind == "f" and column.itemsize <= 8:
                    # Zero means all bits zero, so -0.0, NaN payloads
                    # and infinities round-trip bit for bit.
                    bits = parts[0].view(f"u{column.itemsize}")
                    sparse_len = (
                        -(-bits.size // 8)
                        + np.count_nonzero(bits) * bits.itemsize
                    )
                    if 0 < 4 * sparse_len <= 3 * bits.nbytes:
                        kind = "sparse"
                        mask = bits != 0   # compress: 4x bits[mask]
                        parts = [np.packbits(mask), np.compress(mask, bits)]
                header_cols.append({
                    "dtype": column.dtype.str,
                    "kind": kind,
                    "len": sum(part.nbytes for part in parts),
                    "name": name,
                    "shape": list(column.shape),
                })
                buffers.extend(part.tobytes() for part in parts)
            else:
                raw = pickle.dumps(
                    list(column), protocol=pickle.HIGHEST_PROTOCOL
                )
                header_cols.append({
                    "kind": "object",
                    "len": len(raw),
                    "name": name,
                })
                buffers.append(raw)
        header = json.dumps(
            {"cols": header_cols, "n": self._num_rows},
            sort_keys=True, separators=(",", ":"),
        ).encode("utf-8")
        parts = [MAGIC, len(header).to_bytes(4, "little"), header]
        parts.extend(buffers)
        return b"".join(parts)

    @classmethod
    def from_buffer(cls, data):
        """Decode :meth:`to_buffer` output from any bytes-like
        ``data``. Array columns are zero-copy ``np.frombuffer`` views
        over it, writable only if ``data`` is; sparse columns are
        fresh read-only arrays. Raises :class:`ValueError` — before
        any column is built — unless ``data`` is exactly as long as
        its header says, and on any column kind it does not know."""
        if data[:4] != MAGIC:
            raise ValueError("not a columnar buffer (bad magic)")
        header_len = int.from_bytes(data[4:8], "little")
        header = json.loads(bytes(data[8:8 + header_len]))
        offset = 8 + header_len
        if offset + sum(spec["len"] for spec in header["cols"]) != len(data):
            raise ValueError("buffer is not the length its header says")
        view = memoryview(data)
        columns = {}
        for spec in header["cols"]:
            raw = view[offset:offset + spec["len"]]
            offset += spec["len"]
            name, kind = spec["name"], spec["kind"]
            if kind == "object":
                columns[name] = pickle.loads(raw)
            elif kind == "array":
                columns[name] = np.frombuffer(
                    raw, dtype=np.dtype(spec["dtype"])
                ).reshape(spec["shape"])
            elif kind == "sparse":
                columns[name] = _scatter(
                    raw, np.dtype(spec["dtype"]), spec["shape"], name
                )
            else:
                raise ValueError(f"column {name!r}: unknown kind {kind!r}")
        return cls(columns, header["n"])

    def __repr__(self):
        kinds = {
            name: (
                f"{column.dtype}{list(column.shape[1:])}"
                if isinstance(column, np.ndarray) else "object"
            )
            for name, column in self._columns.items()
        }
        return f"<ColumnarBlock {self._num_rows} rows: {kinds}>"


def is_columnar_buffer(data):
    """True iff ``data`` is a :meth:`ColumnarBlock.to_buffer` blob."""
    return bytes(data[:4]) == MAGIC
