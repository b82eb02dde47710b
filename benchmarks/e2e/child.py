"""Measure one workload in this process; ``run.py`` starts one per workload.

Closed loop, one client: an iteration starts only after the previous
one returned. The runner pins the BLAS thread variables in this
process's environment before it starts, so at most one compute thread
runs (two forked tasks in ``staged_process``).

Order of a run: five times over, a set-up (ending with an untimed
warm-up iteration) followed by a fifth of the timed iterations, tracing
off; then — with ``--trace 1`` — one traced iteration; then the output
check. The calibration kernel runs between any two timed sections, and
the end-to-end seconds are scaled by it (``calibration.py``). The full
record goes to ``--record`` as JSON.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from time import perf_counter

import numpy as np

from calibration import kernel_seconds, scale
from iteration import iterate, iteration_failure, single_image_failure
from layers import quartiles, traced_pass
from run import PINNED
from workloads import BASELINE, QUICK_RECORDS, WORKLOADS, setup

SETUP_REPS = 5


def _sample_stats(values):
    low, high = quartiles(values)
    return {"n": len(values), "median": statistics.median(values),
            "p25": low, "p75": high, "max": max(values), "values": values}


def peak_rss_mb():
    """High-water RSS of this process or its largest reaped child."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def environment(load_start):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = None
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in PINNED},
        "loadavg_1m_start": load_start,
        "loadavg_1m_end": os.getloadavg()[0],
    }


def measure(workload, args, tmp):
    records = QUICK_RECORDS if args.quick else workload.records
    setup_reps = 1 if args.quick else SETUP_REPS
    # Set-ups and timed iterations alternate, so the samples of both
    # cover the whole run. The calibration kernel runs in every gap;
    # a timed section is scaled by the two kernel runs around it.
    timings, setup_s, setup_raw_s, iterations = [], [], [], []
    for rep in range(setup_reps):
        before = kernel_seconds()
        start = perf_counter()
        state = setup(
            workload, records, args.seed, os.path.join(tmp, f"setup{rep}")
        )
        warm, _ = iterate(state)
        setup_raw_s.append(perf_counter() - start)
        after = kernel_seconds()
        setup_s.append(setup_raw_s[-1] * scale(before, after))
        timings.append(state.timings)
        if warm.error is not None:
            raise SystemExit("warm-up iteration raised:\n" + warm.error)
        deadline = perf_counter() + args.seconds / setup_reps
        while True:
            before = after
            iteration, matrices = iterate(state)
            after = kernel_seconds()
            iteration.scale = scale(before, after)
            iterations.append(iteration)
            if perf_counter() >= deadline:
                break
    rss_mb = peak_rss_mb()   # before the traced pass adds its spans

    samples = {
        name: _sample_stats([it.scaled(name) for it in iterations])
        for name in ("wall_s", "first_model_s", "cpu_s")
    }
    wall_median = samples["wall_s"]["median"]
    record = {
        "workload": workload.name, "seed": args.seed, "records": records,
        "iterations": len(iterations), "setup_runs": setup_reps,
        "end_to_end": {
            "wall_s": wall_median,
            "records_per_s": records / wall_median,
            "first_model_s": samples["first_model_s"]["median"],
            "cpu_s": samples["cpu_s"]["median"],
            "peak_rss_mb": rss_mb,
            "setup_s": statistics.median(setup_s),
        },
        "samples": {
            **samples,
            "setup_s": _sample_stats(setup_s),
            # As the clock read them, before scaling.
            "wall_raw_s": _sample_stats([it.wall_s for it in iterations]),
            "setup_raw_s": _sample_stats(setup_raw_s),
            "machine_speed_ratio":
                _sample_stats([it.scale for it in iterations]),
        },
        "per_layer": None, "findings": [],
    }
    if args.trace:
        record["per_layer"], record["findings"] = traced_pass(
            state, iterations, timings, args.trace_file
        )

    failures = [
        reason for reason in (
            iteration_failure(iteration, warm) for iteration in iterations
        ) if reason is not None
    ]
    if not failures:
        whole_run = single_image_failure(state, matrices, args.seed)
        if whole_run is None and workload.twin:
            reference, _ = iterate(
                dataclasses.replace(state, workload=BASELINE)
            )
            if ([o[3] for o in reference.runs[0].outputs]
                    != [o[3] for o in iterations[-1].runs[0].outputs]):
                whole_run = "feature matrices differ from staged_alexnet's"
        if whole_run is not None:   # every iteration produced that output
            failures = [whole_run] * len(iterations)
    record.update(
        attempted=len(iterations), failed=len(failures),
        failed_ratio=len(failures) / len(iterations),
        failures=sorted(set(failures)),
    )
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace-file", required=True)
    args = parser.parse_args(argv)
    unpinned = [name for name in PINNED if os.environ.get(name) != "1"]
    if unpinned:
        raise SystemExit(f"thread variables not pinned to 1: {unpinned}")
    load_start = os.getloadavg()[0]
    with tempfile.TemporaryDirectory(dir=args.scratch) as tmp:
        record = measure(WORKLOADS[args.workload], args, tmp)
    record["environment"] = environment(load_start)
    with open(args.record, "w") as handle:
        json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main())
