"""Training lanes: how many cores the downstream model may train on.

The paper trains M distributed (MLlib, TF/Horovod), and Eq. 10 charges
one copy of M per core. Here the executor hands M the run's ``cpu`` as
an ambient value, set around each downstream call and 1 everywhere
else, so a model that can split its work reads it without a new
argument on ``downstream_fn``'s signature.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

_LANES = ContextVar("training_lanes", default=1)


def training_lanes():
    """The lanes the model being trained may use (1 outside a run's
    downstream call)."""
    return _LANES.get()


@contextmanager
def lanes(count):
    """Train on ``count`` lanes for the duration of the block; the
    previous value is back afterwards, returned or raised."""
    token = _LANES.set(count)
    try:
        yield
    finally:
        _LANES.reset(token)
