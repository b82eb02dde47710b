"""The wave file, the one on-disk layout of partitions: VCB1 payloads
back to back, a JSON footer (the writer's fields and each partition's
``{offset, nbytes, sha256, num_rows}``), the footer's SHA-256, its
length (8 bytes, little-endian) and :data:`WAVE_MAGIC`. The checkpoint
store writes one per committed wave, fsynced; a Storage region one per
spilled partition, unsynced, read back only by that region.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os

from repro.exceptions import CheckpointIntegrityError

#: Footer schema tag; part of the run fingerprint, so a run namespace
#: written in another layout is never opened.
CHECKPOINT_SCHEMA = "ckpt/v4"
WAVE_MAGIC = b"CKW1"
_TRAILER = 32 + 8 + len(WAVE_MAGIC)


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def encode_wave(partitions, payloads, **fields):
    """The bytes of one wave file holding ``payloads`` (one VCB1 buffer
    per partition of ``partitions``), and its footer; ``fields`` join
    the footer beside its schema tag."""
    offsets = itertools.accumulate(map(len, payloads), initial=0)
    footer = {
        "schema": CHECKPOINT_SCHEMA, **fields,
        "partitions": {
            str(partition.index): {
                "offset": offset, "nbytes": len(payload),
                "sha256": sha256_hex(payload), "num_rows": len(partition),
            }
            for partition, payload, offset in zip(partitions, payloads,
                                                  offsets)
        },
    }
    footer_bytes = json.dumps(
        footer, sort_keys=True, separators=(",", ":")).encode("utf-8")
    data = b"".join([*payloads, footer_bytes,
                     hashlib.sha256(footer_bytes).digest(),
                     len(footer_bytes).to_bytes(8, "little"), WAVE_MAGIC])
    return data, json.loads(footer_bytes)


def read_footer(path):
    """The footer of the wave file at ``path``, None for a file of
    another layout; raises ``CheckpointIntegrityError`` on a torn one."""
    with open(path, "rb") as handle:
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
            f"wave file {os.path.basename(path)}: footer fails its "
            "digest (torn write)")
    footer = json.loads(footer)
    return footer if footer["schema"] == CHECKPOINT_SCHEMA else None
