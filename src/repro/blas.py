"""One BLAS thread per lane.

When a stage's tasks or a model's gradient shards run on several
threads at once, each GEMM should run on the thread that called it:
OpenBLAS's own threads on top of the lanes oversubscribe the cores
(two lanes × two OpenBLAS threads made ResNet50-mini's INFER slower
than one lane, not faster). numpy's wheels bundle OpenBLAS as
``libscipy_openblas64_``, whose thread count ctypes can set at run
time; with any other BLAS, :func:`one_blas_thread` does nothing.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from functools import lru_cache


@lru_cache(maxsize=None)
def _openblas():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS,
    or None when numpy was not built with it."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
        except (OSError, AttributeError):
            continue
    return None


@contextmanager
def one_blas_thread(lanes):
    """Hold BLAS at one thread while ``lanes`` (> 1) threads compute at
    once; the previous count is back afterwards, returned or raised.
    One lane, or no bundled OpenBLAS, leaves BLAS alone."""
    calls = _openblas() if lanes > 1 else None
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
