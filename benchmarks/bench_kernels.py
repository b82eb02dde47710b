"""Microbenchmark: per-image vs batched NHWC inference kernels.

Times full-network inference over the AlexNet/VGG16/ResNet50 zoo two
ways — one image at a time through ``CNN.forward`` versus one
``CNN.forward_batch`` call per batch — verifies the two paths agree
(allclose at float32), and writes ``BENCH_kernels.json`` at the repo
root so future PRs have a perf trajectory to compare against.

The timings run *inside* trace spans and the reported seconds are read
back out of the exported span tree (``harness.span_seconds``) — the
committed JSON is the shared ``trace/v2`` envelope, with the full span
tree and a metrics block alongside the derived result rows. The bench
also measures the observability layers' own cost: batched inference
with the per-operator ``op_timer`` hook attached must stay within 5%
of untraced inference, and an end-to-end Vista run with a
:class:`~repro.metrics.MetricsRegistry` attached must stay within 5%
of an uninstrumented run.

The committed result file is intentionally tracked in git: it is the
perf record, not a scratch artifact.

Usage::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--quick]
        [--profile mini|full] [--batch N] [--repeats R] [--out PATH]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

if __name__ == "__main__":
    # One BLAS thread, as benchmarks/e2e/run.py pins its children, set
    # before numpy loads the library: the overhead benches divide CPU
    # time by CPU time, and an unpinned OpenBLAS spin-waits its idle
    # threads into one side of the ratio.
    for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS"):
        os.environ[_variable] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(__file__))

from harness import (  # noqa: E402
    find_span,
    print_table,
    span_seconds,
    trace_payload,
    write_results,
)

from repro.cnn import build_model  # noqa: E402
from repro.trace import Tracer  # noqa: E402

MODELS = ("alexnet", "vgg16", "resnet50")
RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_kernels.json",
)

#: Acceptance bound: attaching the per-operator timing hook must cost
#: less than this fraction of untraced batched inference.
MAX_TRACER_OVERHEAD = 0.05

#: Acceptance bound: running a Vista workload with a metrics registry
#: attached must cost less than this fraction of an uninstrumented run.
MAX_METRICS_OVERHEAD = 0.05

#: Acceptance bound: streaming a file-backed run ledger (span events,
#: wave/task lifecycle, throttled metric samples) must cost less than
#: this fraction of the same traced run without a ledger.
MAX_LEDGER_OVERHEAD = 0.05


def bench_model(name, profile, batch_size, repeats, tracer):
    """Time per-image vs batched inference for one zoo model under a
    ``bench:<model>`` span; the caller reads the numbers back from the
    exported trace."""
    model = build_model(name, profile=profile)
    rng = np.random.default_rng(0)
    batch = rng.normal(size=(batch_size,) + model.input_shape).astype(
        np.float32
    )
    # correctness first: both paths must agree before we time them
    batched_out = model.forward_batch(batch)
    per_image_out = np.stack([model.forward(image) for image in batch])
    np.testing.assert_allclose(
        batched_out, per_image_out, rtol=1e-4, atol=1e-5,
        err_msg=f"{name}: batched and per-image inference diverged",
    )
    with tracer.span(f"bench:{name}", model=name, profile=profile,
                     batch_size=batch_size, repeats=repeats):
        with tracer.span("per_image") as sp:
            for _ in range(repeats):
                for image in batch:
                    model.forward(image)
            sp.add("images", repeats * batch_size)
        with tracer.span("batched") as sp:
            for _ in range(repeats):
                model.forward_batch(batch)
            sp.add("images", repeats * batch_size)


def bench_tracer_overhead(profile, batch_size, repeats):
    """Batched inference with vs without the per-operator timing hook.

    Trials interleave and each side takes its min, so OS noise cancels
    rather than landing on one side of the ratio. Samples are CPU time
    (``time.process_time``): inference is pure CPU, so process time
    captures the hook's true cost without the scheduler preemption
    that skews wall-clock ratios on shared machines.
    """
    model = build_model("alexnet", profile=profile)
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(batch_size,) + model.input_shape).astype(
        np.float32
    )
    model.forward_batch(batch)  # warm caches
    tracer = Tracer(name="overhead")
    # Enough trials for the min to find a preemption-free sample per
    # side even on a machine with background load.
    trials = max(13, repeats)
    inner = 3  # amortize each sample over several batch inferences
    untraced = traced = float("inf")
    try:
        for _ in range(trials):
            model.op_timer = None
            start = time.process_time()
            for _ in range(inner):
                model.forward_batch(batch)
            untraced = min(untraced, time.process_time() - start)

            model.op_timer = tracer.record_op
            with tracer.span("traced_batch"):
                start = time.process_time()
                for _ in range(inner):
                    model.forward_batch(batch)
                traced = min(traced, time.process_time() - start)
    finally:
        model.op_timer = None
    return {
        "untraced_seconds": untraced,
        "traced_seconds": traced,
        "overhead_fraction": traced / untraced - 1.0,
    }


def bench_metrics_overhead(pairs=48):
    """End-to-end Vista run with vs without a metrics registry.

    The estimator is an *alternating sum ratio*: single runs alternate
    plain/instrumented back to back (order flipping each pair) and the
    overhead is the ratio of the two per-side CPU-time sums. On a
    shared machine the dominant noise is multiplicative — frequency
    scaling and steal-time windows lasting whole seconds, under which
    every sample in the window runs a constant factor slower — so
    per-sample best-of estimators only converge if *both* sides
    happen to sample inside the same fast window. Fine-grained
    alternation instead puts each pair inside one window, where the
    common factor cancels from the ratio, and summing averages the
    residual one-sided preemption spikes over all pairs. The runs are
    timed with ``time.process_time`` (CPU time): the workload is pure
    CPU, so CPU time measures exactly the cost the registry adds
    while ignoring scheduler wait. The last instrumented registry is
    returned so the committed envelope carries a real metrics block.
    """
    from repro import MetricsRegistry, Vista, default_resources
    from repro.data import foods_dataset

    # Shared dataset: generation cost stays out of the timings. The
    # registry's cost is per task/stage, not per record, so the record
    # count sets the signal-to-noise of the measured *fraction* — 640
    # records makes one run long enough that the fixed instrument cost
    # is well inside the budget and scheduler spikes average out.
    dataset = foods_dataset(num_records=640)

    def make_vista():
        return Vista(
            model_name="alexnet", num_layers=3, dataset=dataset,
            resources=default_resources(num_nodes=2),
        )

    def one(metrics=None):
        vista = make_vista()  # built untimed
        start = time.process_time()
        vista.run(metrics=metrics)
        return time.process_time() - start

    # Warm caches on both code paths before sampling starts.
    warm_until = time.process_time() + 1.0
    while time.process_time() < warm_until:
        make_vista().run(metrics=MetricsRegistry())
    plain_sum = instrumented_sum = 0.0
    registry = None
    for pair in range(max(8, pairs)):
        registry = MetricsRegistry()
        if pair % 2 == 0:
            plain_sum += one()
            instrumented_sum += one(registry)
        else:
            instrumented_sum += one(registry)
            plain_sum += one()
    return {
        "plain_seconds": plain_sum,
        "instrumented_seconds": instrumented_sum,
        "overhead_fraction": instrumented_sum / plain_sum - 1.0,
    }, registry


def bench_ledger_overhead(pairs=24):
    """End-to-end traced Vista run with vs without a file-backed run
    ledger, using the same paired alternating-order CPU-time estimator
    as :func:`bench_metrics_overhead` (see there for why alternation
    beats best-of under multiplicative machine noise). Both sides run
    with a tracer attached — the ledger's marginal cost is what the
    budget gates: the O_APPEND line writes for span/wave/task events
    plus the barrier fsyncs.
    """
    import tempfile

    from repro import Vista, default_resources
    from repro.data import foods_dataset
    from repro.observe import RunLedger
    from repro.trace import Tracer

    # Larger than the metrics bench workload on purpose: ledger cost is
    # per *event* (partition/span bound), not per record, so more
    # records grow the denominator without growing the event stream.
    dataset = foods_dataset(num_records=1280)

    def make_vista():
        return Vista(
            model_name="alexnet", num_layers=3, dataset=dataset,
            resources=default_resources(num_nodes=2),
        )

    def one(ledger=None):
        vista = make_vista()  # built untimed
        tracer = Tracer()
        start = time.process_time()
        vista.run(tracer=tracer, ledger=ledger)
        elapsed = time.process_time() - start
        if ledger is not None:
            ledger.close()
        return elapsed

    with tempfile.TemporaryDirectory() as tmp:
        ledger_path = os.path.join(tmp, "bench.ledger.jsonl")

        def make_ledger():
            # Truncate between runs so the file never grows unbounded;
            # append-mode open cost is part of what we measure.
            open(ledger_path, "w").close()
            return RunLedger(ledger_path)

        warm_until = time.process_time() + 1.0
        while time.process_time() < warm_until:
            one(make_ledger())
        plain_sum = ledgered_sum = 0.0
        events = 0
        for pair in range(max(8, pairs)):
            ledger = make_ledger()
            if pair % 2 == 0:
                plain_sum += one()
                ledgered_sum += one(ledger)
            else:
                ledgered_sum += one(ledger)
                plain_sum += one()
            events = len(ledger)
    return {
        "plain_seconds": plain_sum,
        "ledgered_seconds": ledgered_sum,
        "events_per_run": events,
        "overhead_fraction": ledgered_sum / plain_sum - 1.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer repeats; skip writing the result file")
    parser.add_argument("--profile", default="mini",
                        choices=("mini", "full"))
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the result envelope to PATH (even with --quick)",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.quick else 5)

    tracer = Tracer(name="bench_kernels")
    for name in MODELS:
        bench_model(name, args.profile, args.batch, repeats, tracer)
    trace = tracer.export()

    results = []
    for name in MODELS:
        subtree = find_span(trace, f"bench:{name}")
        per_image = span_seconds(subtree, "per_image")
        batched = span_seconds(subtree, "batched")
        results.append({
            "model": name,
            "profile": args.profile,
            "batch_size": args.batch,
            "repeats": repeats,
            "per_image_seconds": per_image,
            "batched_seconds": batched,
            "speedup": per_image / batched,
        })
    overhead = bench_tracer_overhead(args.profile, args.batch, repeats)
    metrics_overhead, metrics_registry = bench_metrics_overhead(
        pairs=24 if args.quick else 48
    )
    ledger_overhead = bench_ledger_overhead(
        pairs=12 if args.quick else 24
    )

    print_table(
        f"Kernel microbenchmark ({args.profile} profile, "
        f"batch={args.batch}, repeats={repeats})",
        ["model", "per-image s", "batched s", "speedup"],
        [
            (
                r["model"],
                f"{r['per_image_seconds']:.4f}",
                f"{r['batched_seconds']:.4f}",
                f"{r['speedup']:.1f}x",
            )
            for r in results
        ],
    )
    print(
        f"\ntracer overhead on batched inference: "
        f"{overhead['overhead_fraction'] * 100:.2f}% "
        f"(traced {overhead['traced_seconds']:.4f}s vs "
        f"untraced {overhead['untraced_seconds']:.4f}s)"
    )
    print(
        f"metrics overhead on an end-to-end run: "
        f"{metrics_overhead['overhead_fraction'] * 100:.2f}% "
        f"(instrumented {metrics_overhead['instrumented_seconds']:.4f}s "
        f"vs plain {metrics_overhead['plain_seconds']:.4f}s)"
    )
    print(
        f"ledger overhead on a traced end-to-end run: "
        f"{ledger_overhead['overhead_fraction'] * 100:.2f}% "
        f"(ledgered {ledger_overhead['ledgered_seconds']:.4f}s vs "
        f"plain {ledger_overhead['plain_seconds']:.4f}s, "
        f"{ledger_overhead['events_per_run']} events/run)"
    )

    best = max(r["speedup"] for r in results)
    if args.batch >= 32:
        assert best >= 3.0, (
            f"batched kernels only {best:.1f}x faster than per-image at "
            f"batch {args.batch}; expected >= 3x"
        )
    assert overhead["overhead_fraction"] < MAX_TRACER_OVERHEAD, (
        f"tracer overhead {overhead['overhead_fraction'] * 100:.2f}% "
        f"exceeds the {MAX_TRACER_OVERHEAD * 100:.0f}% budget"
    )
    assert metrics_overhead["overhead_fraction"] < MAX_METRICS_OVERHEAD, (
        f"metrics overhead "
        f"{metrics_overhead['overhead_fraction'] * 100:.2f}% exceeds "
        f"the {MAX_METRICS_OVERHEAD * 100:.0f}% budget"
    )
    assert ledger_overhead["overhead_fraction"] < MAX_LEDGER_OVERHEAD, (
        f"ledger overhead "
        f"{ledger_overhead['overhead_fraction'] * 100:.2f}% exceeds "
        f"the {MAX_LEDGER_OVERHEAD * 100:.0f}% budget"
    )
    out_path = args.out or (None if args.quick else RESULT_PATH)
    if out_path:
        write_results(out_path, trace_payload(
            "kernels", results, trace=trace, metrics=metrics_registry,
            profile=args.profile, batch_size=args.batch, repeats=repeats,
            tracer_overhead=overhead, metrics_overhead=metrics_overhead,
            ledger_overhead=ledger_overhead,
        ))
        print(f"\nwrote {out_path}")
    return results


if __name__ == "__main__":
    main()
