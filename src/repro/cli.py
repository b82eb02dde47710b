"""Command-line interface: ``python -m repro <command>``.

Commands
--------
models
    Show the roster CNNs with their optimizer-facing statistics.
plan
    Run the Vista optimizer (Algorithm 1) for a workload at paper
    scale and print the chosen configuration and size estimates.
estimate
    Predict runtime/crash for an approach (lazy-N / eager / vista) on
    the paper-scale cost model.
run
    Execute the workload end to end at mini scale on the real engines
    with a synthetic dataset, printing per-layer downstream F1.
    ``--checkpoint-dir`` makes stage outputs durable.
resume
    Pick up an interrupted checkpointed run: restore checksum-valid
    stage partitions from ``--checkpoint-dir``, recompute the rest.
    Takes the same observability flags as ``run`` (``--trace``,
    ``--metrics``, ``--progress``, ``--ledger``, ``--perfetto``).
explain
    Show the complete Algorithm 1 candidate ledger (every cpu with its
    Eq. 9-15 terms and rejection reasons), optionally pricing a pinned
    what-if configuration.
top
    Render the live progress view of an ``obs/v1`` run ledger —
    per-stage predicted-vs-observed seconds and the calibrated ETA —
    or validate every ledger line against the schema.
report
    Render a recorded ``metrics/v1`` export (memory waterlines, crash
    attribution), or evaluate a declarative SLO ruleset (``--slo
    RULES LEDGER``) against a run ledger, exiting nonzero on breach.
history
    The run-history warehouse: ``ingest`` obs/v1 ledgers into an
    append-only store of ``runsum/v1`` summaries,
    ``list``/``show`` them, ``diff`` two runs span-by-span
    (flamegraph-style, exiting nonzero on deterministic regressions),
    and ``trend`` metric timelines with robust change-point detection
    (``--gate`` exits nonzero on flagged drift).
"""

from __future__ import annotations

import argparse
import sys

from repro.memory.model import GB


def _add_workload_args(parser):
    parser.add_argument(
        "--model", default="resnet50",
        choices=["alexnet", "vgg16", "resnet50"],
    )
    parser.add_argument("--layers", type=int, default=None,
                        help="number of top feature layers (default: all)")
    parser.add_argument(
        "--dataset", default="foods", choices=["foods", "amazon"],
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--memory-gb", type=float, default=32.0)
    parser.add_argument("--cores", type=int, default=8)
    parser.add_argument("--gpu-gb", type=float, default=0.0)


def _add_observability_args(parser):
    """The one shared registration point for run-observability flags:
    ``run`` and ``resume`` take the identical set, so a run
    interrupted with a ledger can be resumed with a ledger."""
    parser.add_argument(
        "--trace", action="store_true",
        help="record a span trace and print the flame-style summary",
    )
    parser.add_argument(
        "--trace-json", metavar="PATH", default=None,
        help="write the recorded trace as JSON to PATH",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="record time-series metrics and print the run report "
             "(memory waterlines, predicted-vs-observed peaks)",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH", default=None,
        help="write the recorded metrics/v1 series as JSON to PATH "
             "(render with `repro report --metrics-json PATH`)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print live per-stage progress with a cost-model ETA "
             "(online-calibrated predicted-vs-observed stage seconds)",
    )
    parser.add_argument(
        "--ledger", metavar="PATH", default=None,
        help="stream an append-only obs/v1 run ledger to PATH as the "
             "run executes; readable to the kill point even if the "
             "run never returns (inspect with `repro top PATH`)",
    )
    parser.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write a Chrome trace-event JSON (driver spans + wave "
             "scheduler + forked-worker pid tracks) loadable in "
             "ui.perfetto.dev",
    )
    parser.add_argument(
        "--inject-straggler", metavar="PART:SECONDS", default=None,
        help="deterministically delay the task for partition PART by "
             "SECONDS on the simulated clock (a seeded straggler "
             "fault) — the controlled drift source the history trend "
             "gate is exercised against in CI",
    )


def _dataset_stats(name):
    from repro.core.config import DatasetStats

    if name == "foods":
        return DatasetStats(20_000, 130, 14 * 1024)
    return DatasetStats(200_000, 200, 15 * 1024)


def _workload(args):
    from repro.cnn import get_model_stats
    from repro.core.config import Resources

    stats = get_model_stats(args.model)
    count = args.layers or len(stats.feature_layers)
    layers = stats.top_feature_layers(count)
    resources = Resources(
        num_nodes=args.nodes,
        system_memory_bytes=int(args.memory_gb * GB),
        cores_per_node=args.cores,
        gpu_memory_bytes=int(args.gpu_gb * GB),
    )
    return stats, layers, _dataset_stats(args.dataset), resources


def cmd_models(args):
    from repro.cnn import MODEL_ROSTER

    print(f"{'model':10s} {'params':>8s} {'GFLOP/img':>9s} "
          f"{'|f|ser':>8s} {'|f|mem':>8s} {'|f|gpu':>8s}  feature layers")
    for name, stats in MODEL_ROSTER.items():
        print(
            f"{name:10s} {stats.total_params / 1e6:>7.1f}M "
            f"{stats.total_flops / 1e9:>9.2f} "
            f"{stats.serialized_bytes / GB:>7.2f}G "
            f"{stats.runtime_mem_bytes / GB:>7.2f}G "
            f"{stats.gpu_mem_bytes / GB:>7.2f}G  "
            f"{','.join(stats.feature_layers)}"
        )
    return 0


def cmd_plan(args):
    from repro.core.optimizer import optimize
    from repro.core.sizing import estimate_sizes
    from repro.exceptions import NoFeasiblePlan

    stats, layers, dataset_stats, resources = _workload(args)
    sizing = estimate_sizes(stats, layers, dataset_stats)
    print(f"workload: {args.model} x {len(layers)} layers over "
          f"{dataset_stats.num_records} records ({args.dataset})")
    for layer in layers:
        nbytes = sizing.intermediate_table_bytes[layer]
        print(f"  |T_{layer}| ~= {nbytes / GB:.2f} GB")
    print(f"  s_single = {sizing.s_single / GB:.2f} GB, "
          f"s_double = {sizing.s_double / GB:.2f} GB")
    try:
        config = optimize(stats, layers, dataset_stats, resources)
    except NoFeasiblePlan as exc:
        print(f"NO FEASIBLE PLAN: {exc}")
        return 1
    print(f"optimizer: {config.describe()}")
    return 0


def cmd_estimate(args):
    from repro.core.optimizer import optimize
    from repro.core.plans import EAGER, LAZY, STAGED
    from repro.costmodel import (
        estimate_runtime,
        ignite_default_setup,
        spark_default_setup,
        vista_setup,
    )
    from repro.costmodel.crashes import manual_setup
    from repro.costmodel.params import ClusterSpec

    stats, layers, dataset_stats, resources = _workload(args)
    cluster = ClusterSpec(
        num_nodes=args.nodes, cores_per_node=args.cores,
        system_memory_bytes=int(args.memory_gb * GB),
    )
    approach = args.approach
    if approach.startswith("lazy-"):
        cpu = int(approach.split("-")[1])
        setup = (
            spark_default_setup(cpu, dataset_stats.num_records)
            if args.backend == "spark" else ignite_default_setup(cpu)
        )
        report = estimate_runtime(
            stats, layers, dataset_stats, LAZY, setup, cluster
        )
    elif approach == "eager":
        setup = manual_setup(
            stats, layers, dataset_stats, 5, backend=args.backend,
            cluster_memory_bytes=int(args.memory_gb * GB), label="eager",
        )
        report = estimate_runtime(
            stats, layers, dataset_stats, EAGER, setup, cluster
        )
    else:  # vista
        config = optimize(stats, layers, dataset_stats, resources)
        report = estimate_runtime(
            stats, layers, dataset_stats, STAGED,
            vista_setup(config, backend=args.backend), cluster,
        )
    if report.crashed:
        print(f"{approach}: CRASH ({report.crash})")
        return 1
    print(f"{approach}: {report.minutes:.1f} min")
    for part, seconds in sorted(
        report.breakdown.items(), key=lambda item: -item[1]
    ):
        print(f"  {part:10s} {seconds / 60:>7.1f} min")
    if report.spilled_bytes:
        print(f"  spilled    {report.spilled_bytes / GB:>7.1f} GB")
    return 0


def _write_run_export(path, metrics_registry):
    """Write the run's ``metrics/v1`` block for ``repro report
    --metrics-json`` to render (both the success and the crash path
    run through here)."""
    import json

    with open(path, "w") as handle:
        json.dump(metrics_registry.export(), handle, indent=2,
                  sort_keys=True, default=str)
    print(f"metrics export written to {path}")


def _make_ledger(args):
    """Build the run ledger when any live-observability flag asks for
    one: file-backed with ``--ledger PATH``, memory-only when only
    ``--progress``/``--perfetto`` need the event stream."""
    want = (
        getattr(args, "ledger", None) is not None
        or getattr(args, "progress", False)
        or getattr(args, "perfetto", None) is not None
    )
    if not want:
        return None
    from repro.observe import RunLedger

    return RunLedger(getattr(args, "ledger", None))


def _finalize_ledger(args, ledger):
    """Close out the run's observability artifacts (both the success
    and the crash path run through here)."""
    if ledger is None:
        return
    if getattr(args, "perfetto", None):
        from repro.observe import write_chrome_trace

        write_chrome_trace(args.perfetto, ledger)
        print(f"perfetto trace written to {args.perfetto}")
    ledger.close()
    if ledger.path:
        print(f"run ledger written to {ledger.path} "
              f"({len(ledger)} events; inspect with `repro top "
              f"{ledger.path}`)")


def _straggler_context(vista, config, spec):
    """Build the run's cluster context with a seeded straggler fault
    wired in: ``PART:SECONDS`` delays that partition's task on the
    simulated clock (no failure), recording a ``recovery`` event —
    the deterministic drift source the history trend gate flags."""
    from repro.faults import FaultInjector, FaultPlan, equip_context

    part_text, _, delay_text = str(spec).partition(":")
    try:
        partition = int(part_text)
        delay_s = float(delay_text) if delay_text else 10.0
    except ValueError:
        raise SystemExit(
            f"--inject-straggler expects PART:SECONDS, got {spec!r}"
        ) from None
    context = vista.build_context(config)
    injector = FaultInjector(
        FaultPlan().straggler(partition=partition, delay_s=delay_s),
        seed=0,
    )
    return equip_context(context, injector=injector)


def cmd_run(args):
    from repro import Vista
    from repro.core.config import Resources
    from repro.data import amazon_dataset, foods_dataset
    from repro.exceptions import WorkloadCrash

    ledger = _make_ledger(args)
    tracer = None
    if args.trace or args.trace_json or ledger is not None:
        # The ledger's span/progress events come from the tracer sink,
        # so any live-observability flag implies a tracer.
        from repro.trace import Tracer

        tracer = Tracer()
    metrics_registry = None
    if args.metrics or args.metrics_json:
        from repro.metrics import MetricsRegistry

        metrics_registry = MetricsRegistry()
    checkpoint_store = None
    if getattr(args, "checkpoint_dir", None):
        from repro.recovery import CheckpointStore

        checkpoint_store = CheckpointStore(args.checkpoint_dir)
    maker = foods_dataset if args.dataset == "foods" else amazon_dataset
    dataset = maker(num_records=args.records)
    resources = Resources(
        num_nodes=args.nodes,
        system_memory_bytes=int(args.memory_gb * GB),
        cores_per_node=args.cores,
    )
    stats_layers = args.layers
    vista = Vista(
        model_name=args.model,
        num_layers=stats_layers or 2,
        dataset=dataset,
        resources=resources,
        exec_backend=getattr(args, "backend", None) or "serial",
    )
    config = vista.optimize(tracer=tracer, metrics=metrics_registry)
    print(f"optimizer: {config.describe()}")
    context = None
    if getattr(args, "inject_straggler", None):
        context = _straggler_context(vista, config, args.inject_straggler)
    if ledger is not None:
        from repro.observe import (
            ProgressRenderer,
            environment_meta,
            predict_stage_plan,
            run_fingerprint,
        )

        meta = {
            "model": args.model, "dataset": args.dataset,
            "records": args.records, "nodes": args.nodes,
            "layers": args.layers or 2,
            "exec_backend": getattr(args, "backend", None) or "serial",
            "resumed": bool(getattr(args, "_resumed", False)),
            "env": environment_meta(),
        }
        ledger.emit("run_meta", fingerprint=run_fingerprint(meta),
                    **meta)
        stage_plan = predict_stage_plan(
            vista.model_stats, vista.layers, vista.dataset_stats,
            vista.plan, config, vista.resources, backend=vista.backend,
        )
        ledger.emit("stage_plan", plan=vista.plan.label,
                    stages=stage_plan.to_list())
        if args.progress:
            ledger.listeners.append(ProgressRenderer(stage_plan))
    try:
        result = vista.run(context=context, tracer=tracer,
                           metrics=metrics_registry,
                           checkpoint_store=checkpoint_store,
                           ledger=ledger)
    except WorkloadCrash as crash:
        if ledger is not None:
            ledger.emit("run_end",
                        status=f"crash:{type(crash).__name__}")
        print(f"CRASHED: {type(crash).__name__}: {crash}")
        if checkpoint_store is not None:
            print(
                f"checkpoints survive under {checkpoint_store.root} "
                f"(run `repro resume --checkpoint-dir "
                f"{checkpoint_store.root} ...` with the same workload "
                "to pick up from them)"
            )
        if metrics_registry is not None:
            from repro.report import render_crash_report

            print()
            print(render_crash_report(metrics_registry))
            if args.metrics_json:
                _write_run_export(args.metrics_json, metrics_registry)
        _finalize_ledger(args, ledger)
        return 1
    if ledger is not None:
        ledger.emit("run_end", status="ok")
    for layer, layer_result in result.layer_results.items():
        print(f"  {layer:10s} dim={layer_result.feature_dim:<6d} "
              f"train F1={layer_result.downstream['f1_train']:.3f}")
    print(f"inference GFLOPs: "
          f"{result.metrics['inference_flops'] / 1e9:.3f}")
    if checkpoint_store is not None:
        _print_checkpoint_summary(checkpoint_store)
    if tracer is not None:
        exported = tracer.export()
        if args.trace:
            from repro.report import render_trace

            print()
            print(render_trace(exported))
        if args.trace_json:
            import json

            with open(args.trace_json, "w") as handle:
                json.dump(exported, handle, indent=2, sort_keys=True,
                          default=str)
            print(f"trace written to {args.trace_json}")
    if metrics_registry is not None:
        if args.metrics:
            from repro.report import render_report

            print()
            print(render_report(metrics_registry))
        if args.metrics_json:
            _write_run_export(args.metrics_json, metrics_registry)
    _finalize_ledger(args, ledger)
    return 0


def _print_checkpoint_summary(store):
    print(
        f"checkpoints: {store.checkpoint_partitions_total} partitions / "
        f"{store.checkpoint_bytes} B written, {store.restore_total} "
        f"restored, {store.recompute_total} recomputed "
        f"(saved ratio {store.saved_ratio():.2f})"
    )
    if store.corrupt_total or store.missing_total or store.torn_manifest_total:
        print(
            f"checkpoint integrity: {store.corrupt_total} corrupt, "
            f"{store.missing_total} missing, "
            f"{store.torn_manifest_total} torn manifests — all recovered "
            "by recompute"
        )


def cmd_resume(args):
    """Resume an interrupted checkpointed run: same workload flags as
    ``run``, restoring checksum-valid stage partitions from
    ``--checkpoint-dir`` and recomputing only the rest."""
    import os

    if not os.path.isdir(args.checkpoint_dir):
        print(
            f"resume: checkpoint dir {args.checkpoint_dir!r} does not "
            "exist (nothing to resume from)",
            file=sys.stderr,
        )
        return 2
    # Mark the run_meta so history summaries can tell a resumed run
    # from a fresh one with the same workload fingerprint inputs.
    args._resumed = True
    return cmd_run(args)


def cmd_explain(args):
    from repro.core.config import DownstreamSpec
    from repro.explain import explain
    from repro.report import render_explain

    stats, layers, dataset_stats, resources = _workload(args)
    pins = {}
    if args.pin_cpu is not None:
        pins["cpu"] = args.pin_cpu
    if args.pin_plan is not None:
        pins["plan"] = args.pin_plan
    if args.pin_join is not None:
        pins["join"] = args.pin_join
    if args.pin_persistence is not None:
        pins["persistence"] = args.pin_persistence
    if args.pin_user_frac is not None:
        pins["user_fraction"] = args.pin_user_frac
    if args.pin_storage_frac is not None:
        pins["storage_fraction"] = args.pin_storage_frac
    result = explain(
        stats, layers, dataset_stats, resources,
        downstream=DownstreamSpec(), backend=args.backend,
        what_if_pins=pins or None,
    )
    if args.json:
        import json

        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2,
                      sort_keys=True, default=str)
            handle.write("\n")
        print(f"explain ledger written to {args.json}")
    else:
        print(render_explain(result))
    return 0 if result.feasible else 1


def _render_ledger_summary(record):
    lines = [f"### ledger — {record['events']} events, "
             f"{record['wall_s']:.3f}s of run recorded"]
    for kind, count in sorted(record["events_by_kind"].items()):
        lines.append(f"  {kind:<20s} {count:>6d}")
    for problem in record["parse_problems"]:
        lines.append(f"  parse problem: {problem}")
    return "\n".join(lines)


def cmd_top(args):
    from repro.observe import (
        read_ledger,
        render_progress,
        replay_progress,
        summarize_ledger,
        validate_events,
    )

    def load():
        return read_ledger(args.ledger)

    try:
        events, problems = load()
    except OSError as exc:
        print(f"top: cannot read {args.ledger!r}: {exc}", file=sys.stderr)
        return 2
    if args.validate:
        schema_problems = validate_events(events)
        for problem in problems:
            print(f"parse: {problem}")
        for problem in schema_problems:
            print(f"schema: {problem}")
        print(f"{len(events)} events, {len(problems)} parse problem(s), "
              f"{len(schema_problems)} schema problem(s)")
        return 1 if (problems or schema_problems) else 0

    def render(events, problems):
        state = replay_progress(events)
        if state is None:
            print(_render_ledger_summary(
                summarize_ledger(events, problems)
            ))
            return state
        print(render_progress(state))
        return state

    state = render(events, problems)
    while args.follow:
        if any(e.get("kind") == "run_end" for e in events):
            break
        import time

        time.sleep(args.interval)
        events, problems = load()
        print()
        state = render(events, problems)
    if state is not None and not state.run_ended:
        # No run_end: the run is live — or was killed mid-flight.
        print("  (no run_end event: run still in flight, or killed)")
    return 0


def cmd_report(args):
    from repro.report import metrics_block, render_report

    if getattr(args, "slo", None):
        if not args.target:
            print("report --slo RULES requires a TARGET (obs/v1 ledger)",
                  file=sys.stderr)
            return 2
        from repro.observe import (
            evaluate_slo,
            has_breach,
            load_rules,
            render_slo,
        )

        try:
            rules = load_rules(args.slo)
        except (OSError, ValueError, KeyError) as exc:
            print(f"report: bad ruleset {args.slo!r}: {exc}",
                  file=sys.stderr)
            return 2
        try:
            verdicts = evaluate_slo(rules, args.target,
                                    baseline=args.baseline)
        except (OSError, ValueError) as exc:
            print(f"report: cannot read SLO target/baseline: {exc}",
                  file=sys.stderr)
            return 2
        print(render_slo(
            verdicts, title=f"SLO {args.slo} vs {args.target}"
        ))
        return 1 if has_breach(verdicts) else 0
    if args.metrics_json:
        try:
            block = metrics_block(args.metrics_json)
        except (OSError, ValueError) as exc:
            print(f"report: cannot read {args.metrics_json!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(render_report(block, width=args.width))
        return 0
    print("report: pass --metrics-json FILE or --slo RULES TARGET",
          file=sys.stderr)
    return 2


def _default_history_rules(args):
    """Resolve the trend ruleset: ``--rules`` wins, else the repo's
    ``slo/default.yaml`` when the working directory has one."""
    import os

    if getattr(args, "rules", None):
        return args.rules
    candidate = os.path.join("slo", "default.yaml")
    return candidate if os.path.exists(candidate) else None


def cmd_history(args):
    from repro.observe import HistoryStore

    store = HistoryStore(args.store)
    command = args.history_command
    if command == "ingest":
        slo_rules = None
        rules_path = _default_history_rules(args)
        if rules_path is not None:
            from repro.observe import load_rules

            try:
                slo_rules = load_rules(rules_path)
            except (OSError, ValueError, KeyError) as exc:
                print(f"history ingest: bad ruleset {rules_path!r}: "
                      f"{exc}", file=sys.stderr)
                return 2
        failures = 0
        for path in args.paths:
            try:
                record, created = store.ingest(path, slo_rules=slo_rules)
            except (OSError, ValueError) as exc:
                print(f"history ingest: {path}: {exc}", file=sys.stderr)
                failures += 1
                continue
            verb = "ingested" if created else "already ingested"
            print(
                f"{verb} {record['run_id']} [{record['kind']}] "
                f"status={record['status']} "
                f"stages={len(record.get('stages') or {})} "
                f"from {path}"
            )
        return 2 if failures else 0
    if command == "list":
        from repro.report import render_history_list

        records = store.summaries(last=args.last)
        print(render_history_list(records,
                                  title=f"run history ({store.root})"))
        return 0 if records else 2
    # show / diff / trend all need a non-empty store.
    ids = store.run_ids()
    if not ids:
        print(f"history {command}: store {store.root!r} is empty "
              "(run `repro history ingest` first)", file=sys.stderr)
        return 2
    if command == "show":
        from repro.report import render_history_show

        try:
            record = store.load(store.resolve(args.run))
        except (KeyError, ValueError, OSError) as exc:
            print(f"history show: {exc}", file=sys.stderr)
            return 2
        print(render_history_show(record))
        return 0
    if command == "diff":
        from repro.observe import diff_runs, has_regressions
        from repro.report import render_history_diff

        try:
            base = store.load(store.resolve(args.run_a))
            target = store.load(store.resolve(args.run_b))
        except (KeyError, ValueError, OSError) as exc:
            print(f"history diff: {exc}", file=sys.stderr)
            return 2
        diff = diff_runs(base, target)
        print(render_history_diff(diff))
        return 1 if has_regressions(diff) else 0
    if command == "trend":
        from repro.observe import (
            HistoryRule,
            evaluate_trend,
            load_history_rules,
            trend_has_breach,
        )
        from repro.report import render_trend

        if args.metric:
            rules = [
                HistoryRule(name=f"metric:{spec}", metric=spec,
                            threshold=args.threshold,
                            min_runs=args.min_runs)
                for spec in args.metric
            ]
        else:
            rules_path = _default_history_rules(args)
            if rules_path is None:
                print("history trend: no --metric and no ruleset "
                      "(pass --rules FILE or run from a checkout "
                      "with slo/default.yaml)", file=sys.stderr)
                return 2
            try:
                rules = load_history_rules(rules_path)
            except (OSError, ValueError, KeyError) as exc:
                print(f"history trend: bad ruleset {rules_path!r}: "
                      f"{exc}", file=sys.stderr)
                return 2
            if not rules:
                print(f"history trend: {rules_path!r} has no "
                      "history: scope", file=sys.stderr)
                return 2
        report = evaluate_trend(store.summaries(), rules,
                                last=args.last)
        print(render_trend(
            report, title=f"history trend ({store.root})"
        ))
        if args.gate and trend_has_breach(report):
            return 1
        return 0
    raise AssertionError(f"unknown history command {command!r}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vista (SIGMOD 2020) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="show the CNN roster")

    plan = sub.add_parser("plan", help="run the Vista optimizer")
    _add_workload_args(plan)

    estimate = sub.add_parser(
        "estimate", help="paper-scale runtime/crash prediction"
    )
    _add_workload_args(estimate)
    estimate.add_argument(
        "--approach", default="vista",
        choices=["lazy-1", "lazy-5", "lazy-7", "eager", "vista"],
    )
    estimate.add_argument(
        "--backend", default="spark", choices=["spark", "ignite"]
    )

    def _add_run_args(sub_parser):
        _add_workload_args(sub_parser)
        sub_parser.add_argument("--records", type=int, default=80)
        _add_observability_args(sub_parser)
        sub_parser.add_argument(
            "--backend", default="serial", choices=["serial", "process"],
            help="physical wave executor: 'serial' (deterministic "
                 "in-process default) or 'process' (up to cpu "
                 "forked workers resident per stage, results over pipes)",
        )

    run = sub.add_parser("run", help="mini-scale end-to-end execution")
    _add_run_args(run)
    run.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="durably checkpoint stage outputs under DIR (integrity-"
             "verified VCB1 partitions + SHA-256 manifest); an "
             "interrupted run can later be picked up with `repro resume`",
    )

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted checkpointed run: restore checksum-"
             "valid stage partitions from --checkpoint-dir, recompute "
             "the rest",
    )
    _add_run_args(resume)
    resume.add_argument(
        "--checkpoint-dir", metavar="DIR", required=True,
        help="checkpoint directory of the interrupted run (required)",
    )

    explain = sub.add_parser(
        "explain",
        help="EXPLAIN the optimizer's plan choice (full Algorithm 1 "
             "candidate ledger), optionally with a pinned what-if",
    )
    _add_workload_args(explain)
    explain.add_argument(
        "--backend", default="spark", choices=["spark", "ignite"]
    )
    explain.add_argument(
        "--pin-cpu", type=int, default=None, metavar="N",
        help="what-if: pin the per-worker parallelism",
    )
    explain.add_argument(
        "--pin-plan", default=None,
        choices=["lazy", "lazy-reordered", "eager", "eager-reordered",
                 "staged", "staged-bj"],
        help="what-if: pin the logical plan",
    )
    explain.add_argument(
        "--pin-join", default=None, choices=["shuffle", "broadcast"],
        help="what-if: pin the physical join",
    )
    explain.add_argument(
        "--pin-persistence", default=None,
        choices=["serialized", "deserialized"],
        help="what-if: pin the persistence format",
    )
    explain.add_argument(
        "--pin-user-frac", type=float, default=None, metavar="F",
        help="what-if: pin User Memory to F x the post-DL/OS/Core "
             "worker memory",
    )
    explain.add_argument(
        "--pin-storage-frac", type=float, default=None, metavar="F",
        help="what-if: pin Storage Memory to F x the post-DL/OS/Core "
             "worker memory",
    )
    explain.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the candidate ledger as JSON to PATH instead of "
             "rendering",
    )

    top = sub.add_parser(
        "top",
        help="live progress view of an obs/v1 run ledger (per-stage "
             "predicted-vs-observed seconds, calibrated ETA)",
    )
    top.add_argument("ledger", metavar="LEDGER",
                     help="path to an obs/v1 run ledger (JSONL)")
    top.add_argument(
        "--validate", action="store_true",
        help="validate every ledger line against the obs/v1 schema "
             "instead of rendering; exit 1 on any problem",
    )
    top.add_argument(
        "--follow", action="store_true",
        help="keep re-rendering until the ledger records run_end",
    )
    top.add_argument("--interval", type=float, default=0.5,
                     help="poll interval for --follow, in seconds")

    report = sub.add_parser(
        "report",
        help="render a recorded metrics export, or evaluate an SLO "
             "ruleset against a run ledger",
    )
    report.add_argument(
        "target", nargs="?", metavar="TARGET", default=None,
        help="for --slo: the obs/v1 ledger to evaluate",
    )
    report.add_argument(
        "--slo", metavar="RULES", default=None,
        help="evaluate the declarative SLO ruleset (YAML subset or "
             "JSON) against TARGET; exit 1 on any breach-severity "
             "violation",
    )
    report.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="baseline run's ledger for baseline-ratio / "
             "baseline-equal SLO rules",
    )
    report.add_argument(
        "--metrics-json", metavar="FILE", default=None,
        help="render the run report for a `run --metrics-json` export",
    )
    report.add_argument("--width", type=int, default=60,
                        help="waterline chart width in columns")

    history = sub.add_parser(
        "history",
        help="run-history warehouse: ingest obs/v1 ledgers, "
             "span-aligned profile diffs, drift timelines",
    )
    history.add_argument(
        "--store", metavar="DIR", default="history",
        help="history store directory (default ./history)",
    )
    hsub = history.add_subparsers(dest="history_command", required=True)
    h_ingest = hsub.add_parser(
        "ingest", help="summarize source files into the store "
                       "(idempotent: re-ingesting is a no-op)",
    )
    h_ingest.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="obs/v1 ledgers (`repro run --ledger PATH`)",
    )
    h_ingest.add_argument(
        "--rules", metavar="FILE", default=None,
        help="SLO ruleset evaluated at ingest time; verdict counts "
             "are stored on the record (default: slo/default.yaml "
             "when present)",
    )
    h_list = hsub.add_parser("list", help="list ingested runs")
    h_list.add_argument("--last", type=int, default=None, metavar="K",
                        help="show only the K newest runs")
    h_show = hsub.add_parser("show", help="show one run's summary")
    h_show.add_argument(
        "run", metavar="RUN",
        help="run id prefix, or @N / @-N ingest-order ordinal",
    )
    h_diff = hsub.add_parser(
        "diff", help="span-aligned flamegraph diff of two runs; exit "
                     "1 on any deterministic regression (sim seconds, "
                     "status, recovery count, memory over budget)",
    )
    h_diff.add_argument("run_a", metavar="RUN_A",
                        help="base run (id prefix or @N ordinal)")
    h_diff.add_argument("run_b", metavar="RUN_B",
                        help="target run (id prefix or @N ordinal)")
    h_trend = hsub.add_parser(
        "trend", help="robust (median/MAD) change-point detection "
                      "over the run timeline",
    )
    h_trend.add_argument(
        "--metric", action="append", default=None, metavar="GLOB",
        help="ad-hoc metric spec(s) over runsum/v1 records (e.g. "
             "stages.*.sim_s); repeatable; default: the history: "
             "scope of slo/default.yaml",
    )
    h_trend.add_argument(
        "--rules", metavar="FILE", default=None,
        help="ruleset file providing the history: scope "
             "(default slo/default.yaml)",
    )
    h_trend.add_argument("--last", type=int, default=None, metavar="K",
                         help="detect over only the K newest runs")
    h_trend.add_argument(
        "--threshold", type=float, default=3.5, metavar="Z",
        help="robust z-score threshold for --metric rules "
             "(default 3.5)",
    )
    h_trend.add_argument(
        "--min-runs", type=int, default=3, metavar="N",
        help="minimum runs before a series is judged (default 3)",
    )
    h_trend.add_argument(
        "--gate", action="store_true",
        help="exit 1 when any breach-severity drift is flagged",
    )
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "models": cmd_models,
        "plan": cmd_plan,
        "estimate": cmd_estimate,
        "run": cmd_run,
        "resume": cmd_resume,
        "explain": cmd_explain,
        "top": cmd_top,
        "report": cmd_report,
        "history": cmd_history,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
