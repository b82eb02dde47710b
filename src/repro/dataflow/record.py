"""Record layout and size estimation (Appendix A, Figure 14).

Rows are plain dicts from field name to value — the view the engine
hands to user code; inside the engine a partition is a
:class:`~repro.dataflow.columnar.ColumnarBlock`. The estimator mirrors
Spark's Tungsten binary record format: a fixed 8-byte slot per field
(null-tracking bitmap folded into the first slot), with variable-length
fields (numpy arrays, TensorLists, strings, raw image bytes) storing an
8-byte offset+length header in their slot and the payload at the end
of the record.

Vista uses this arithmetic (Eq. 16, Figure 15) to bound intermediate
table sizes ahead of a run. The engine does not charge memory with it:
partitions are charged their block's exact buffer bytes, and only the
members of an object column (ragged tensors, TensorLists, strings) are
priced with :func:`estimate_value_bytes`.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensorlist import TensorList

_FIXED_SLOT = 8
_VAR_HEADER = 8


def estimate_value_bytes(value):
    """Payload bytes of one variable-length value (0 for fixed-size)."""
    if value is None or isinstance(value, (bool, int, float, np.integer,
                                           np.floating)):
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, TensorList):
        # Each member tensor carries its own header inside the list.
        return value.nbytes() + _VAR_HEADER * len(value)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (list, tuple)):
        return sum(_FIXED_SLOT + estimate_value_bytes(v) for v in value)
    raise TypeError(f"cannot estimate size of {type(value).__name__}")


def estimate_record_bytes(row):
    """Tungsten-style size of one record: null bitmap + one 8-byte slot
    per field + variable-length payloads."""
    size = _FIXED_SLOT  # null-tracking bitmap word
    for value in row.values():
        size += _FIXED_SLOT
        size += estimate_value_bytes(value)
    return size


def estimate_rows_bytes(rows):
    """Total Tungsten-style bytes of an iterable of records."""
    return sum(estimate_record_bytes(row) for row in rows)
