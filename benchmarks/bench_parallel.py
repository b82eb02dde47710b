"""Benchmark: process-backend speedup curve + parallel calibration.

Runs the staged plan's feature-transfer workload per ``cpu`` setting on
both execution backends via
:func:`repro.explain.calibration.calibrate_parallel` and records

- the serial/process wall-clock **speedup** of the feature stage at
  each ``cpu`` (the curve Algorithm 1's knob is supposed to buy — the
  serial engine's ``cpu`` only ever changed accounting),
- the cost model's predicted inference seconds against the *actual
  parallel* wall (``runtime_ratio_capacity:parallel:cpu{n}``) — the
  calibration the serial engine could never provide, which is what let
  :data:`~repro.explain.calibration.RUNTIME_DRIFT_GATE` tighten from
  100x to its measured band.

``BENCH_parallel.json`` is the committed ``trace/v2`` envelope.
Wall-clock speedups are hardware-dependent, so the envelope records
``cores_available`` honestly and ``--check`` compares it exactly: a
baseline committed from a 1-core container never silently gates a
multi-core CI run (capacity drift is only gated when the core counts
match). Next to it sits the *measured* ``parallel_capacity`` — how
many cores' worth of throughput that many concurrent processes really
get (a 2-vCPU VM can read 2 and 1.0); ``--check`` treats a baseline
that predates the field as "capacity unknown", and one that disagrees
by half a core or more as other hardware. Independently of any
baseline, the run **asserts the >=1.5x speedup floor at cpu=4 on the
staged plan whenever the host actually delivers >= 4 cores** — on
smaller or oversubscribed hosts the floor is reported as skipped,
because forking cannot beat serial without parallel hardware.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
        [--records N] [--repeats N] [--check OLD.json] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from harness import (  # noqa: E402
    load_envelope,
    print_table,
    trace_payload,
    write_results,
)

from repro.cnn import build_model  # noqa: E402
from repro.core.config import VistaConfig  # noqa: E402
from repro.data import foods_dataset  # noqa: E402
from repro.explain.calibration import (  # noqa: E402
    RUNTIME_DRIFT_GATE,
    calibrate_parallel,
    drift_violations,
)
from repro.memory.model import GB, MemoryBudget  # noqa: E402

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_parallel.json",
)

NUM_NODES = 2
CORES_PER_NODE = 4
NUM_PARTITIONS = 8
LAYERS = ("fc7",)
CPUS = (1, 2, 4)

#: The acceptance floor: process must beat serial by this factor on
#: the staged plan's feature stage at cpu=4 — asserted only on hosts
#: that actually deliver >= 4 cores to parallelize across.
SPEEDUP_FLOOR = 1.5
FLOOR_CPU = 4
FLOOR_MIN_CORES = 4


def build_workload(records):
    """Staged-plan workload sized so per-task inference dominates fork
    + pipe-transfer overhead on a multi-core host."""
    cnn = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=records)
    config = VistaConfig(
        cpu=1, num_partitions=NUM_PARTITIONS, mem_storage_bytes=0,
        mem_user_bytes=0, mem_dl_bytes=0, join="shuffle",
        persistence="deserialized",
    )
    budget = MemoryBudget(
        system_bytes=32 * GB, os_reserved_bytes=0, user_bytes=1 * GB,
        core_bytes=1 * GB, storage_bytes=1 * GB, dl_bytes=1 * GB,
        driver_bytes=1 * GB, storage_elastic=True,
    )
    return cnn, dataset, config, budget


def run_parallel_calibration(records, cpus, repeats):
    cnn, dataset, config, budget = build_workload(records)
    return calibrate_parallel(
        cnn, dataset, list(LAYERS), config, budget,
        num_nodes=NUM_NODES, cores_per_node=CORES_PER_NODE,
        cpus=cpus, repeats=repeats,
    )


def check_drift(report, baseline_path):
    """Gate a fresh report against a committed envelope; returns the
    number of violations (0 = pass)."""
    old_results = load_envelope(baseline_path, bench="parallel")["results"]
    new_results = report.results()
    old_cores = old_results.get("cores_available")
    if old_cores != new_results["cores_available"]:
        # Different hardware: the capacity ratios are incomparable by
        # construction. The exact field caught it — report and pass.
        print(
            f"parallel gate SKIP vs {baseline_path}: baseline recorded "
            f"cores_available={old_cores}, this host has "
            f"{new_results['cores_available']}; capacity ratios are "
            "not comparable across core counts"
        )
        return 0
    # A record older than the field says nothing about its capacity:
    # unknown, not a mismatch.
    old_capacity = old_results.get("parallel_capacity")
    new_capacity = new_results["parallel_capacity"]
    if old_capacity is not None and abs(old_capacity - new_capacity) >= 0.5:
        print(
            f"parallel gate SKIP vs {baseline_path}: baseline measured "
            f"parallel_capacity={old_capacity}, this host measures "
            f"{new_capacity}; the same core count delivers different "
            "throughput"
        )
        return 0
    failures = 0
    drift = drift_violations(old_results, new_results)
    for key, (old, new) in sorted(drift.items()):
        print(f"DRIFT        {key}: {old} -> {new}")
        failures += 1
    if failures == 0:
        print(
            f"parallel gate PASS vs {baseline_path} "
            f"(runtime gate {RUNTIME_DRIFT_GATE}x)"
        )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small matrix, skip writing the result file")
    parser.add_argument("--records", type=int, default=None,
                        help="dataset size (default 96, 24 with --quick)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="process-backend attempts per cpu, best wall "
                             "kept (default 3, 1 with --quick)")
    parser.add_argument("--check", metavar="OLD.json", default=None,
                        help="gate on drift vs a committed envelope")
    parser.add_argument("--out", default=RESULT_PATH,
                        help="result path (default: BENCH_parallel.json)")
    args = parser.parse_args(argv)

    records = args.records or (24 if args.quick else 96)
    repeats = args.repeats or (1 if args.quick else 3)
    cpus = CPUS[:2] if args.quick else CPUS

    report = run_parallel_calibration(records, cpus, repeats)

    print_table(
        f"Process-backend speedup ({report.model} x {LAYERS}, "
        f"{report.num_records} records, plan {report.plan}, "
        f"{report.cores_available} core(s) available, "
        f"parallel_capacity {report.parallel_capacity})",
        ["cpu", "serial feat s", "process feat s", "speedup",
         "serial total s", "process total s", "predicted feat s"],
        [
            (
                row.cpu,
                f"{row.serial_feature_s:.4f}",
                f"{row.process_feature_s:.4f}",
                f"{row.speedup:.2f}x",
                f"{row.serial_total_s:.4f}",
                f"{row.process_total_s:.4f}",
                f"{row.predicted_feature_s:.6f}",
            )
            for row in report.rows
        ],
    )

    # Shape invariants that hold on any hardware: every cell ran, every
    # wall is positive, and every row carries a speedup + parallel
    # calibration ratio.
    assert [row.cpu for row in report.rows] == list(cpus)
    for row in report.rows:
        assert row.serial_feature_s > 0 and row.process_feature_s > 0, (
            f"cpu={row.cpu}: empty feature-stage wall"
        )
        assert row.speedup > 0, f"cpu={row.cpu}: no speedup recorded"
        assert row.parallel_ratio is not None, (
            f"cpu={row.cpu}: no parallel calibration ratio"
        )

    # The acceptance floor — only meaningful where parallel hardware
    # exists. --quick skips it too (its workload is too small for
    # compute to dominate fork overhead).
    floor_rows = [row for row in report.rows if row.cpu == FLOOR_CPU]
    if floor_rows and not args.quick and report.delivers(FLOOR_MIN_CORES):
        speedup = floor_rows[0].speedup
        assert speedup >= SPEEDUP_FLOOR, (
            f"process backend speedup at cpu={FLOOR_CPU} is "
            f"{speedup:.2f}x on {report.cores_available} cores; "
            f"floor is {SPEEDUP_FLOOR}x"
        )
        print(f"\nspeedup floor PASS: {speedup:.2f}x >= "
              f"{SPEEDUP_FLOOR}x at cpu={FLOOR_CPU}")
    else:
        print(f"\nspeedup floor SKIPPED "
              f"(cores_available={report.cores_available}, "
              f"parallel_capacity={report.parallel_capacity}: under "
              f"{FLOOR_MIN_CORES} delivered cores, or --quick)")

    if args.check:
        failures = check_drift(report, args.check)
        if failures:
            print(f"\nparallel gate FAIL: {failures} violation(s)")
            return 1

    # Baseline-refresh decision (recorded in the envelope so the CI
    # `parallel` job can act on it mechanically): only an envelope
    # measured on real parallel hardware is worth committing as the
    # baseline — a sub-4-core host's speedup curve is fork-overhead-
    # bound and would poison every future multi-core comparison.
    refresh_eligible = report.delivers(FLOOR_MIN_CORES)
    baseline_refresh = {
        "cores_available": report.cores_available,
        "parallel_capacity": report.parallel_capacity,
        "eligible": refresh_eligible,
        "reason": (
            f"host has {report.cores_available} cores delivering "
            f"{report.parallel_capacity} >= {FLOOR_MIN_CORES}: a real "
            f"multi-core record, safe to commit as the new baseline"
            if refresh_eligible else
            f"host has {report.cores_available} core(s) delivering "
            f"{report.parallel_capacity} < {FLOOR_MIN_CORES}: speedups "
            f"are fork-overhead-bound, keep the committed baseline"
        ),
    }
    print(f"baseline refresh {'ELIGIBLE' if refresh_eligible else 'SKIP'}: "
          f"{baseline_refresh['reason']}")

    if not args.quick:
        payload = trace_payload(
            "parallel", report.results(),
            records=records, repeats=repeats, num_nodes=NUM_NODES,
            cores_per_node=CORES_PER_NODE, cpus=list(cpus),
            num_partitions=NUM_PARTITIONS, layers=list(LAYERS),
            model=report.model, plan=report.plan,
            speedup_floor=SPEEDUP_FLOOR, floor_cpu=FLOOR_CPU,
            floor_min_cores=FLOOR_MIN_CORES,
            runtime_drift_gate=RUNTIME_DRIFT_GATE,
            baseline_refresh=baseline_refresh,
        )
        payload["report"] = report.to_dict()
        write_results(args.out, payload)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
