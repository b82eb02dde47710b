"""End-to-end, layer-attributed benchmark of feature-transfer runs.

    python3 benchmarks/e2e/run.py                      # all six workloads
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --quick              # smoke sizes

Each workload is measured by ``child.py`` in a fresh process of its
own, one after another. This file starts those processes with the BLAS
thread variables pinned, checks afterwards that each left nothing
behind, and prints the results. Metric names, units, directions and
bounds live in ``BENCHMARK.json`` only. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
OUT_DIR = os.path.join(HERE, "out")
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170
SHM_DIR = "/dev/shm"


class ChildFailed(RuntimeError):
    """The measuring process exited nonzero or left no record."""


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _reap_group(pgid, grace_s=5.0):
    """Wait for every process of the child's group to end (the process
    backend's resource tracker outlives its parent by a moment). True
    if some had to be killed."""
    deadline = time.monotonic() + grace_s
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
            while _group_alive(pgid):
                time.sleep(0.01)
            return True
        time.sleep(0.01)
    return False


def run_workload(name, seed, seconds, trace, quick=False):
    """Measure one workload in a fresh process and check what it left
    behind; returns its record. A hygiene violation counts every
    iteration as failed."""
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, **{variable: "1" for variable in PINNED})
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]
    )
    with tempfile.TemporaryDirectory(
        dir=OUT_DIR, prefix=name + "-"
    ) as scratch:
        record_path = os.path.join(scratch, "record.json")
        command = [
            sys.executable, os.path.join(HERE, "child.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--scratch", scratch, "--record", record_path,
            "--trace-file", os.path.join(OUT_DIR, f"trace-{name}.json"),
        ] + (["--quick"] if quick else [])
        # Own session: the group id then names everything the child
        # started, and the child's output stays off our stdout.
        child = subprocess.Popen(
            command, env=env, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        if code is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        survivors = _reap_group(child.pid)
        if code != 0 or not os.path.exists(record_path):
            raise ChildFailed(
                f"{name}: measuring process "
                + ("timed out" if code is None else f"exited with {code}")
            )
        with open(record_path) as handle:
            record = json.load(handle)
        os.remove(record_path)
        hygiene = []
        if os.listdir(scratch):
            hygiene.append("temporary directory not removed")
        if survivors:
            hygiene.append("a process outlived the workload")
        if os.path.isdir(SHM_DIR) and any(
            entry.startswith(f"vista{child.pid}x")
            for entry in os.listdir(SHM_DIR)
        ):
            hygiene.append("shared-memory segment left in " + SHM_DIR)
    if hygiene:
        record["failures"] += hygiene
        record["failed"] = record["attempted"]
        record["failed_ratio"] = 1.0
    record["cores_short"] = (
        name == "staged_process" and record["environment"]["nproc"] < 2
    )
    return record


def contract_result(record, spec, trace):
    """The one-line result the contract asks for."""
    section, values = (
        ("per_layer", record["per_layer"]) if trace
        else ("end_to_end", record["end_to_end"])
    )
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric["name"]: {
                "value": values[metric["name"]], "unit": metric["unit"],
            }
            for metric in spec[section]
        },
    }


# ----------------------------------------------------------------------
# all workloads
# ----------------------------------------------------------------------
def _git(*args):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _format(value):
    if float(value).is_integer() and abs(value) >= 1000:
        return f"{int(value):d}"
    return f"{value:.4g}"


def print_tables(result, spec):
    records = result["workloads"]

    def row(name, unit, values):
        print(f"{name:<38}{unit:<9}" + "".join(f"{v:>12}" for v in values))

    def section(title, key):
        print("\n" + title)
        row("metric", "unit", [f"[{i + 1}]" for i in range(len(records))])
        for metric in spec[key]:
            row(metric["name"], metric["unit"],
                [_format(r[key][metric["name"]]) for r in records.values()])

    print()
    for position, name in enumerate(records):
        print(f"[{position + 1}] {name}")
    section("End to end (median per iteration, tracing off)", "end_to_end")
    row("failed_ratio", "ratio",
        [_format(r["failed_ratio"]) for r in records.values()])
    row("iterations", "count", [r["iterations"] for r in records.values()])
    section("Per layer (one traced iteration; seconds are summed self "
            "time unless README.md says otherwise)", "per_layer")
    for name, record in records.items():
        for finding in record["findings"]:
            print(f"FINDING {name}: {finding}")
        for failure in record["failures"]:
            print(f"FAILED {name}: {failure}")
        if record["cores_short"]:
            print(f"!!! {name}: fewer than 2 cores here, so its forked "
                  "tasks share one; NO SCALING READING may be taken from "
                  "it or from dataflow.backend.dispatch_overhead_s")


def run_all(args, spec):
    status = _git("status", "--porcelain")
    result = {
        "seed": args.seed, "seconds": args.seconds, "quick": args.quick,
        "git_commit": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        print(f"== {name}: {workload['why']}", flush=True)
        record = run_workload(
            name, args.seed, args.seconds, trace=True, quick=args.quick
        )
        result["workloads"][name] = record
    print_tables(result, spec)
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nresult written to {args.out}")
    failed = sum(r["failed"] for r in result["workloads"].values())
    return 1 if failed else 0


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a, path_b, spec):
    """One row per end-to-end metric and workload; nonzero on a breach.

    ``worse`` is the share of A's value by which B is worse. A pair
    whose own iteration-to-iteration spread exceeds the bound cannot
    show a breach of that bound and is marked ``unresolved``."""
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    breaches = 0
    print(f"{'workload':<22}{'metric':<16}{'A':>12}{'B':>12}"
          f"{'worse':>9}{'bound':>8}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a or name not in b:
            print(f"{name:<22}missing from one result")
            breaches += 1
            continue
        spread = max(
            record["per_layer"]["bench.wall_spread_ratio"]
            for record in (a[name], b[name])
        )
        for metric in spec["end_to_end"]:
            va = a[name]["end_to_end"][metric["name"]]
            vb = b[name]["end_to_end"][metric["name"]]
            worse = (vb - va) / va
            if metric["better"] == "higher":
                worse = -worse
            if worse <= metric["bound"]:
                verdict = "ok"
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "BREACH"
                breaches += 1
            print(f"{name:<22}{metric['name']:<16}{_format(va):>12}"
                  f"{_format(vb):>12}{worse:>+9.1%}{metric['bound']:>8.0%}"
                  f"  {verdict}")
        fa, fb = a[name]["failed_ratio"], b[name]["failed_ratio"]
        verdict = "ok" if fb <= fa else "BREACH"
        breaches += fb > fa
        print(f"{name:<22}{'failed_ratio':<16}{_format(fa):>12}"
              f"{_format(fb):>12}{'':>9}{'any':>8}  {verdict}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds the dataset generators only")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="timed iterations per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="64 records, one iteration, one set-up")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, spec)
    if args.quick:
        args.seconds = 0.0
    try:
        if args.workload is None:
            return run_all(args, spec)
        record = run_workload(
            args.workload, args.seed, args.seconds, args.trace, args.quick
        )
    except ChildFailed as failure:
        print(failure, file=sys.stderr)
        return 2
    for reason in record["failures"] + record["findings"]:
        print(reason, file=sys.stderr)
    samples = record["samples"]
    print(f"unscaled wall_s median {samples['wall_raw_s']['median']:.4f}, "
          f"machine speed {samples['machine_speed_ratio']['median']:.3f} "
          "of the reference", file=sys.stderr)
    result = contract_result(record, spec, args.trace)
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("a metric is not finite", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
