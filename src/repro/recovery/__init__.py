"""Durable checkpoint/resume for long materialization runs.

See :mod:`repro.recovery.store` for the store over the wave-file layout
and its integrity checks; DESIGN.md §4i for the resume protocol.
"""

from repro.recovery.store import (
    CHECKPOINT_SCHEMA,
    CheckpointStore,
    atomic_write_bytes,
    decode_partition,
    encode_partition,
    reclaim_tmp_files,
    run_fingerprint,
    sha256_hex,
)

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CheckpointStore",
    "atomic_write_bytes",
    "decode_partition",
    "encode_partition",
    "reclaim_tmp_files",
    "run_fingerprint",
    "sha256_hex",
]
