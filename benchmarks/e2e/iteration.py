"""One iteration of a workload, and the check of what it produced."""

from __future__ import annotations

import dataclasses
import hashlib
import resource
import shutil
import tempfile
import traceback
from contextlib import nullcontext
from time import perf_counter

import numpy as np

from repro.features.pooling import pool_feature_tensor

from tracing import ROOT_SPAN

CHECKED_IDS = 32


class Downstream:
    """The benchmark's ``downstream_fn``: trains the workload's model,
    stamps when the first model of the iteration was returned, and
    keeps each layer's train matrix for the output check."""

    def __init__(self, fit):
        self.fit = fit
        self.matrices = []
        self.first_done = None

    def train(self, features, labels):
        outcome = self.fit(features, labels)
        if self.first_done is None:
            self.first_done = perf_counter()
        self.matrices.append((features, labels))
        return outcome


@dataclasses.dataclass
class Run:
    """One program run inside an iteration."""

    label: str
    plan: str
    wall_s: float
    metrics: dict
    #: Per layer, after the clock stopped: (layer, dim, f1, sha256).
    outputs: list


@dataclasses.dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    first_model_s: float
    runs: list
    error: str = None
    #: Takes this iteration's seconds to the calibration kernel's
    #: reference speed; set by the measuring loop.
    scale: float = 1.0

    def scaled(self, name):
        return getattr(self, name) * self.scale


def _cpu_seconds():
    """User + system CPU of this process and its reaped children
    (``getrusage`` reads microseconds; ``os.times`` only clock ticks)."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage,
                         (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _digest(features, labels):
    sha = hashlib.sha256(np.ascontiguousarray(features))
    sha.update(np.ascontiguousarray(labels))
    return sha.hexdigest()


def iterate(state, recorder=None, after=None):
    """Run one iteration; returns ``(Iteration, matrices of its first
    run)``. ``after(state)`` runs off the clock while the iteration's
    directory still exists."""
    workload = state.workload
    state.iter_dir = tempfile.mkdtemp(dir=state.tmp, prefix="iter-")
    down = Downstream(workload.fit)
    finished = []

    def run(label, plan, fn):
        begin = perf_counter()
        first = len(down.matrices)
        result = fn()
        finished.append(
            (label, plan, perf_counter() - begin, result, first)
        )

    error = None
    root = recorder.span(ROOT_SPAN) if recorder else nullcontext()
    cpu_start = _cpu_seconds()
    start = perf_counter()
    try:
        with root:
            workload.body(state, run, down.train)
    except Exception:   # the loop must go on and count the failure
        error = traceback.format_exc()
    wall = perf_counter() - start
    cpu = _cpu_seconds() - cpu_start
    try:
        runs = []
        for label, plan, run_wall, result, first in finished:
            matrices = down.matrices[first:first + len(state.layers)]
            outputs = []
            for layer, (features, labels) in zip(state.layers, matrices):
                outcome = result.layer_results[layer]
                outputs.append((
                    layer, int(outcome.feature_dim),
                    float(outcome.downstream["f1_train"]),
                    _digest(features, labels),
                ))
            runs.append(Run(label, plan, run_wall, result.metrics, outputs))
        if after is not None:
            after(state)
    finally:
        shutil.rmtree(state.iter_dir)
    first_model = (down.first_done or start) - start
    return (Iteration(wall, cpu, first_model, runs, error),
            down.matrices[:len(state.layers)])


# ----------------------------------------------------------------------
# output check
# ----------------------------------------------------------------------
def iteration_failure(iteration, warm):
    """Why this iteration counts as failed, or None: it raised, its
    runs disagree on the feature matrices (six plans of the sweep, cold
    against resume), or ``feature_dim``/``f1_train`` moved since the
    warm-up iteration."""
    if iteration.error is not None:
        return iteration.error.strip().splitlines()[-1]
    digests = {tuple(o[3] for o in run.outputs) for run in iteration.runs}
    if len(digests) != 1:
        return "runs of one iteration produced different feature matrices"
    for run, reference in zip(iteration.runs, warm.runs):
        if [o[:3] for o in run.outputs] != [o[:3] for o in reference.outputs]:
            return (f"{run.label}: feature_dim/f1_train differ from the "
                    "warm-up iteration")
    return None


def single_image_failure(state, matrices, seed):
    """Compare sampled rows of each layer's train matrix against an
    independent path: one image through ``CNN.forward``, pooled, behind
    the structured features."""
    dataset = state.dataset
    rng = np.random.default_rng(seed)
    ids = rng.choice(
        len(dataset), size=min(CHECKED_IDS, len(dataset)), replace=False
    )
    for layer, (features, _) in zip(state.layers, matrices):
        for i in ids:
            tensor = state.cnn.forward(
                dataset.image_rows[i]["image"], upto=layer
            )
            expected = np.concatenate([
                dataset.structured_rows[i]["features"],
                pool_feature_tensor(tensor),
            ])
            # float32 sums in another order: small elements next to
            # large ones differ by a share of the row's scale.
            scale = max(1.0, float(np.abs(expected).max()))
            if not np.allclose(features[i], expected, rtol=1e-4,
                               atol=1e-5 * scale):
                return (f"{layer}: record {i} differs from the "
                        "single-image path")
    return None
