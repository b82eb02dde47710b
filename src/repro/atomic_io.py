"""The one tmp + fsync + rename helper every durable writer shares.

Bytes go to ``<final>.tmp`` in the same directory, are fsynced, then
atomically renamed over the final name: a crash mid-write leaves either
the old complete file or a stray ``*.tmp`` (removed by
:func:`reclaim_tmp_files` when the directory is next opened), never a
half-written final file.

Every syscall goes through ``io`` — the :mod:`os` module by default —
so a test can substitute a shim that counts calls or dies after the
n-th one (``tests/test_crash_points.py``). The shim needs ``open``,
``write``, ``fsync``, ``close``, ``replace``, ``remove`` and
``listdir``.
"""

from __future__ import annotations

import os

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def atomic_write_bytes(path, data, fsync=True, io=os):
    """Write ``data`` to ``path`` via tmp + fsync + rename so a torn
    write can never masquerade as a complete file."""
    tmp = f"{path}.tmp"
    try:
        fd = io.open(tmp, _WRITE_FLAGS, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[io.write(fd, view):]
            if fsync:
                io.fsync(fd)
        finally:
            io.close(fd)
        io.replace(tmp, path)
    except BaseException:
        try:
            io.remove(tmp)
        except FileNotFoundError:
            pass
        raise
    return len(data)


def reclaim_tmp_files(directory, io=os):
    """Remove stray ``*.tmp`` files left by a mid-write crash; returns
    the reclaimed paths (resume reports them, tests assert none leak)."""
    try:
        entries = sorted(io.listdir(directory))
    except (FileNotFoundError, NotADirectoryError):
        return []
    reclaimed = []
    for entry in entries:
        if entry.endswith(".tmp"):
            path = os.path.join(directory, entry)
            io.remove(path)
            reclaimed.append(path)
    return reclaimed
