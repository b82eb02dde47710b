"""How fast is this machine right now? A fixed kernel timed between iterations.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over minutes: CPU seconds inflate together with wall
seconds, and a median over a longer run does not help (measured: the
quartile distance of 12 s medians of one workload was 25% of their
median, and still 24% with 60 s medians). The drift is common to
everything the process executes, so every timed section is bracketed by
two runs of this kernel and its seconds are scaled to the kernel's
reference speed. On the recordings that chose the kernel this took the
spread of 12 s medians from 25% to 5% (AlexNet twins) and from 13% to
1% (``eager_spill_premat``); when the machine is calm the scale is 1
within a few percent and changes nothing.

The kernel imports nothing from ``repro`` and never changes, so no
change to the program can move it. Its four parts load the machine the
way the workloads do: BLAS matmul (conv and dense layers), interpreter
byte code (task engine, joins), element-wise passes over 4 MB (LRN,
ReLU, pooling) and 32 MB copied through memory (columnar encode, spill,
shuffle).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: The kernel's median seconds on the 2-core VM the benchmark was
#: written on, in a calm phase. Scaled timings read "seconds at this
#: machine speed"; only ratios between commits carry meaning anyway.
REFERENCE_S = 0.03

_rng = np.random.default_rng(0)
_square = _rng.standard_normal((256, 256)).astype(np.float32)
_vector = _rng.standard_normal(1 << 20).astype(np.float32)
_vector_out = np.empty_like(_vector)
_block = np.ones(16 << 20, dtype=np.uint8)
_block_out = np.empty_like(_block)


def kernel_seconds():
    """Run the calibration kernel once (about 30 ms); its wall seconds."""
    start = perf_counter()
    for _ in range(30):
        _square @ _square
    total = 0
    for i in range(100000):
        total += i * i
    for _ in range(10):
        np.multiply(_vector, _vector, out=_vector_out)
        np.add(_vector_out, _vector, out=_vector_out)
        np.maximum(_vector_out, 0, out=_vector_out)
    for _ in range(2):
        np.copyto(_block_out, _block)
    return perf_counter() - start


def scale(before_s, after_s):
    """Factor that takes seconds measured between two kernel runs to
    seconds at the reference speed."""
    return REFERENCE_S / ((before_s + after_s) / 2)
