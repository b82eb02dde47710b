"""Plan executor: runs any logical plan on the dataflow + CNN engines.

This is Vista's runtime. Given a cluster context, an executable CNN,
the two data tables, and a :class:`VistaConfig`, it interprets a
:class:`LogicalPlan`'s compiled step list
(:func:`~repro.core.plans.compile_plan`) end to end — (partial) CNN
inference as MapPartitions UDFs, the Tstr-Timg key-key join with the
configured physical operator, intermediate caching under the
configured persistence format, and downstream training per feature
layer — while
metering FLOPs, shuffles, spills, and region peaks, and surfacing the
Section 4.1 crash scenarios as exceptions.

All plans produce bit-identical per-layer feature matrices (the paper:
"All approaches ... yield identical downstream models"); tests assert
this invariant.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.core.plans import SOURCE, Op, compile_plan, infer_step
from repro.dataflow.backend import SERIAL_BACKEND
from repro.dataflow.columnar import ColumnarBlock, pack_column
from repro.dataflow.executor import charge_model_replicas
from repro.dataflow.joins import join as physical_join
from repro.dataflow.table import DistributedTable
from repro.features.pooling import (
    pool_feature_tensor,
    pool_feature_tensor_batch,
    pool_feature_tensors,
)
from repro.memory.model import Region
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import f1_score
from repro.tensor.tensorlist import TensorList


#: FLOPs an ``INFER`` step must spend per byte of tensor it returns to
#: be worth a process boundary. A fixed stand-in for the cost model's
#: measured compute-vs-transfer constants: on the roster minis every
#: step from the raw image reads 374-25,000 FLOP/B and every other step
#: <= 58.5, so any value in between places alike.
DISPATCH_FLOPS_PER_BYTE = 128


def dispatches(cnn, step):
    """Stage placement, decided here for every plan: whether ``step``'s
    stage goes to the context's backend or runs in the driver, where its
    table already is. Per row: every dataset size places alike."""
    if step.op is not Op.INFER:
        return False
    out_bytes = sum(
        cnn.stats.materialized_bytes(layer) for layer, _ in step.outputs
    )
    flops = cnn.flops_between(step.from_layer or 0, step.outputs[-1][0])
    return flops >= DISPATCH_FLOPS_PER_BYTE * out_bytes


def default_downstream(features, labels):
    """The paper's default M: elastic-net logistic regression for 10
    iterations; returns the model and its training-set F1."""
    model = LogisticRegression().fit(features, labels)
    return {
        "model": model,
        "f1_train": f1_score(labels, model.predict(features)),
    }


class LayerResult:
    """Downstream outcome for one feature layer."""

    def __init__(self, layer, feature_dim, downstream):
        self.layer = layer
        self.feature_dim = feature_dim
        self.downstream = downstream

    def __repr__(self):
        return f"<LayerResult {self.layer}: dim={self.feature_dim}>"


class WorkloadResult:
    """Result of one feature-transfer workload run.

    ``trace`` is the root :class:`~repro.trace.Span` of the run's
    trace tree when the workload was traced (``to_dict``/``to_json``
    export it; :func:`repro.report.trace_ascii.render_trace` renders
    it), or None for untraced runs. ``metrics_registry`` is the
    :class:`~repro.metrics.MetricsRegistry` carrying the run's
    time-series (occupancy waterlines, cache counters) when the
    workload ran with metrics on — it sits next to ``trace`` the same
    way, and None for un-metered runs. ``metrics`` remains the flat
    summary dict (FLOPs, spills, peaks) every run produces.
    """

    def __init__(self, plan, layer_results, metrics, trace=None,
                 metrics_registry=None):
        self.plan = plan
        self.layer_results = layer_results  # layer name -> LayerResult
        self.metrics = metrics
        self.trace = trace
        self.metrics_registry = metrics_registry

    def __repr__(self):
        return (
            f"<WorkloadResult {self.plan}: layers="
            f"{list(self.layer_results)}>"
        )


class FeatureTransferExecutor:
    """Executes the feature transfer workload under a logical plan.

    Parameters
    ----------
    context:
        A :class:`~repro.dataflow.context.ClusterContext`; its workers'
        budgets decide whether the run spills, crashes, or sails.
    cnn:
        An executable :class:`~repro.cnn.network.CNN`.
    dataset:
        A :class:`~repro.data.synthetic.MultimodalDataset`.
    layers:
        Ordered feature layers (lowest first) to transfer.
    config:
        A :class:`~repro.core.config.VistaConfig`; picks np, the join
        operator, and the persistence format.
    downstream_fn:
        ``fn(features, labels) -> result``; defaults to the paper's
        logistic regression.
    model_mem_bytes:
        Per-replica DL memory charge; defaults to the executable
        model's own ``cnn.stats.runtime_mem_bytes``.
    """

    def __init__(self, context, cnn, dataset, layers, config,
                 downstream_fn=None, model_mem_bytes=None,
                 user_alpha=2.0, feature_store=None, tracer=None,
                 metrics=None, checkpoint_store=None, ledger=None):
        self.context = context
        self.cnn = cnn
        self.dataset = dataset
        self.layers = list(layers)
        self.config = config
        self.downstream_fn = downstream_fn or default_downstream
        self.model_mem_bytes = (
            model_mem_bytes
            if model_mem_bytes is not None
            else cnn.stats.runtime_mem_bytes
        )
        self.user_alpha = user_alpha
        self.feature_store = feature_store
        self.checkpoint_store = checkpoint_store
        self.metrics = {}
        self._measured_table_bytes = {}
        # Attached in any order: the context wires sinks and clocks.
        if tracer is not None:
            context.attach_tracer(tracer)
        self.tracer = context.tracer
        if metrics is not None:
            context.attach_metrics(metrics)
        self.metrics_registry = context.metrics
        if ledger is not None:
            context.attach_ledger(ledger)
        self.ledger = context.ledger
        self.tstr = self._read(dataset.structured_rows, "t_str", "structured")

    def _read(self, rows, name, what):
        """One source table, under a ``read`` span that reports it."""
        with self.tracer.span("read") as sp:
            table = DistributedTable.from_rows(
                self.context, rows, self.config.num_partitions, name=name
            )
            if self.tracer.enabled:
                sp.add(f"rows_{what}", table.num_rows())
                sp.add(f"bytes_{what}", table.memory_bytes())
        return table

    @cached_property
    def timg(self):
        """T_img, read on first use: a pre-materialized run that hits
        the feature store never reads the images (Appendix B)."""
        return self._read(self.dataset.image_rows, "t_img", "images")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, plan, premat_layer=None):
        """Execute ``plan``; optionally start inference from a
        pre-materialized base feature layer (Appendix B)."""
        self.metrics = {
            "plan": plan.label,
            "inference_flops": 0,
            "premat_flops": 0,
        }
        self._measured_table_bytes = {}
        self.context.reset_metrics()
        config = self.config
        self._bind_checkpoints(plan)
        previous_timer = self.cnn.op_timer
        op_hook, op_flush = self._op_timer_hook()
        if op_hook is not None:
            self.cnn.op_timer = op_hook
        try:
            # Images are read ahead of the workload span, unless a
            # stored base layer may stand in for them.
            source = self.timg if premat_layer is None else None
            with self.tracer.span(
                "workload", plan=plan.label, join=config.join,
                persistence=config.persistence,
                num_partitions=config.num_partitions,
                cpu=self.context.cpu,
            ) as span:
                if premat_layer is not None:
                    source = self._prematerialize(premat_layer)
                layer_results = self._execute(
                    compile_plan(plan, self.layers, premat_layer), source
                )
                if self.tracer.enabled:
                    span.set("sizing", self._sizing_comparison())
        finally:
            self.cnn.op_timer = previous_timer
            if op_flush is not None:
                op_flush()
        self._finalize_metrics()
        trace = self.tracer.root if self.tracer.enabled else None
        registry = (
            self.metrics_registry if self.metrics_registry.enabled else None
        )
        return WorkloadResult(
            plan.label, layer_results, dict(self.metrics), trace=trace,
            metrics_registry=registry,
        )

    def _bind_checkpoints(self, plan):
        """Bind the checkpoint store (if any) to this run's identity.

        The fingerprint covers everything that shapes stage-output
        bytes — model, layers, dataset, plan, and the partitioning /
        persistence knobs — so a degraded re-plan lands in a fresh
        (empty) namespace instead of restoring incompatible partitions.
        """
        store = self.checkpoint_store
        if store is None:
            return
        from repro.features.store import dataset_fingerprint
        from repro.recovery.store import run_fingerprint

        store.fault_injector = self.context.fault_injector
        store.attach_metrics(self.context.metrics)
        store.bind_run(run_fingerprint(
            getattr(self.cnn, "name", "cnn"),
            getattr(self.cnn, "seed", None),
            self.layers, dataset_fingerprint(self.dataset), plan.label,
            self.config,
        ))

    @property
    def _batched_fallbacks(self):
        """Singleton-group fallbacks this run (read-only view over the
        context's task counters, where both backends accumulate)."""
        return self.context.task_counters.get("batched_fallbacks", 0)

    def _op_timer_hook(self):
        """Per-operator hook for the CNN engine, as a ``(recorder,
        flush)`` pair: the recorder (a ``hook(name, seconds)``
        callable — the engine reads the clock itself) feeds the
        tracer's ``op_s:<name>`` counters (when tracing) and collects
        wall seconds for the ``op_seconds{op_type}`` metrics histogram
        (when metered); both None when neither sink is on, so the
        engine skips timing entirely.

        The metered recorder interleaves with the inference inner
        loops, so it does nothing there beyond a dict lookup and a
        float append — observations land in the registry only when
        ``flush`` runs after the workload, keeping the histogram
        bookkeeping and its allocations out of the operators'
        cache-hot path (the metrics-overhead budget is 5%)."""
        tracer_record = (
            self.tracer.record_op if self.tracer.enabled else None
        )
        registry = self.metrics_registry
        if tracer_record is None and not registry.enabled:
            return None, None
        # The run's samples dict (fresh from ``reset_metrics``) lives
        # on the context so the process backend's forked children can
        # diff it around a task and ship only the new samples back —
        # the parent replays them into the tracer and the deferred
        # histogram flush below.
        samples = self.context.op_samples

        if tracer_record is None:

            def hook(name, seconds):
                durations = samples.get(name)
                if durations is None:
                    durations = samples[name] = []
                durations.append(seconds)

        else:

            def hook(name, seconds):
                tracer_record(name, seconds)
                durations = samples.get(name)
                if durations is None:
                    durations = samples[name] = []
                durations.append(seconds)

        if not registry.enabled:
            return hook, None

        def flush():
            for name, durations in samples.items():
                registry.histogram(
                    "op_seconds", op_type=name
                ).observe_many(durations)

        return hook, flush

    def _sizing_comparison(self):
        """Eq. 16 estimates (from the executable CNN's shapes) next to
        the traced actual bytes of each layer's train table — the
        paper's Figure 15 validation, per run."""
        from repro.core.config import DatasetStats
        from repro.core.sizing import estimate_sizes

        estimates = estimate_sizes(
            self.cnn.stats, self.layers,
            DatasetStats.from_dataset(self.dataset), alpha=self.user_alpha,
        ).intermediate_table_bytes
        return {
            layer: {
                "estimated_bytes": estimates[layer],
                "measured_bytes": self._measured_table_bytes.get(layer),
            }
            for layer in self.layers
        }

    # ------------------------------------------------------------------
    # plan interpreter
    # ------------------------------------------------------------------
    def _execute(self, steps, source):
        """Run a compiled plan (:func:`~repro.core.plans.compile_plan`)
        over named table slots; returns ``{layer: LayerResult}``."""
        tables = {SOURCE: source}
        last_read = {step.reads: index for index, step in enumerate(steps)}
        cached = []
        results = {}
        try:
            for index, step in enumerate(steps):
                table = tables[step.reads]
                if step.op is Op.JOIN:
                    tables[step.writes] = self._join(self.tstr, table)
                elif step.op is Op.INFER:
                    tables[step.writes] = self._inference_map(table, step)
                elif step.op is Op.CACHE:
                    # Registered first: a cache() that raises midway
                    # (Storage exceeded) has admitted partitions too.
                    cached.append(table)
                    table.cache(self.config.persistence)
                elif step.op is Op.UNPERSIST:
                    table.unpersist()
                    cached.remove(table)
                elif step.op is Op.PROJECT:
                    tables[step.writes] = self._project(table, step)
                else:
                    results[step.layer] = self._train(table, step)
                if last_read[step.reads] == index:
                    # Nothing reads the slot again: let its blocks go.
                    del tables[step.reads]
        finally:
            for table in cached:
                table.unpersist()
        return results

    def _backend_for(self, step):
        """The backend ``step``'s ``map_blocks`` stage is placed on."""
        if dispatches(self.cnn, step):
            return self.context.exec_backend
        return SERIAL_BACKEND

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------
    def _prematerialize(self, layer):
        """Materialize a base feature layer from raw images once
        (Appendix B); its FLOPs are metered separately.

        With a :class:`~repro.features.store.FeatureStore` attached,
        previously stored features for (model, layer, dataset) are
        reused — the cross-session workflow Appendix B motivates —
        and fresh materializations are persisted for next time.
        """
        with self.tracer.span(f"prematerialize:{layer}", layer=layer) as sp:
            if self.feature_store is not None:
                from repro.features.store import dataset_fingerprint

                fingerprint = dataset_fingerprint(self.dataset)
                block = self.feature_store.get(
                    self.cnn.name, layer, fingerprint
                )
                if block is not None:
                    self.metrics["premat_store_hit"] = True
                    sp.set("store_hit", True)
                    return DistributedTable.from_block(
                        self.context, block, self.config.num_partitions,
                        name=f"t_premat_{layer}",
                    )
            table = self._inference_map(
                self.timg, infer_step(SOURCE, None, layer)
            )
            flops = self.cnn.flops_between(0, layer) * self.timg.num_rows()
            self.metrics["premat_flops"] += flops
            self.metrics["inference_flops"] -= flops
            if self.feature_store is not None:
                self.feature_store.put(
                    self.cnn.name, layer, fingerprint, table.collect()
                )
                self.metrics["premat_store_hit"] = False
                sp.set("store_hit", False)
            return table

    def _infer_ragged(self, values, from_layer, to_layer):
        """Batched inference over an object column (ragged tensors or
        TensorList members): every tensor — TensorList members included
        — joins one flat work list, the list is grouped by exact shape,
        and each group runs the batched kernels once. Zero-padding
        through conv would change the outputs, so exact-shape grouping
        is what keeps the bit-identical-features invariant; only
        singleton groups (nothing to batch with) fall back to the
        per-tensor kernel, counted in ``batched_fallback_total``."""
        flat = []  # (row position, TensorList member position or None)
        tensors = []
        for position, value in enumerate(values):
            if isinstance(value, TensorList):
                for member_position, member in enumerate(value):
                    flat.append((position, member_position))
                    tensors.append(np.asarray(member, dtype=np.float32))
            else:
                flat.append((position, None))
                tensors.append(np.asarray(value, dtype=np.float32))
        groups = {}
        for index, tensor in enumerate(tensors):
            groups.setdefault(tensor.shape, []).append(index)
        outputs = [None] * len(tensors)
        fallbacks = 0
        for indices in groups.values():
            if len(indices) == 1:
                index = indices[0]
                outputs[index] = self.cnn.partial_forward(
                    tensors[index], from_layer or 0, to_layer
                )
                fallbacks += 1
                continue
            batch = self.cnn.partial_forward_batch(
                np.stack([tensors[i] for i in indices]),
                from_layer or 0, to_layer,
            )
            for index, member in zip(indices, batch):
                outputs[index] = member
        if fallbacks:
            counters = self.context.task_counters
            counters["batched_fallbacks"] = (
                counters.get("batched_fallbacks", 0) + fallbacks
            )
            self.metrics_registry.counter(
                "batched_fallback_total"
            ).inc(fallbacks)
        per_row = [None] * len(values)
        members = {}
        for (position, member_position), output in zip(flat, outputs):
            if member_position is None:
                per_row[position] = output
            else:
                members.setdefault(position, []).append(output)
        for position, collected in members.items():
            per_row[position] = TensorList(collected)
        return per_row

    def _inference_map(self, table, step):
        """An ``INFER`` step — partial CNN inference from
        ``step.from_layer`` through every layer of ``step.outputs`` —
        as a block-level batched UDF, with DL replica charges held for
        the duration.

        An array column — the stored ``(N, H, W, C)`` images or the
        previous layer's ``(N, ...)`` tensors — feeds straight into the
        batched kernels, zero-copy. Object columns (ragged tensors,
        TensorLists) batch by exact shape group via
        :meth:`_infer_ragged`.
        """
        field = "tensor" if step.from_layer else "image"
        to_layer = step.outputs[-1][0]

        def infer_block(block):
            if block.num_rows == 0:
                return ColumnarBlock.empty()
            columns = {"id": block.column("id")}
            for extra in step.keep:
                if block.has_column(extra):
                    columns[extra] = block.column(extra)
            current, previous = block.column(field), step.from_layer
            for layer, column in step.outputs:
                if isinstance(current, np.ndarray):
                    current = self.cnn.partial_forward_batch(
                        current, previous or 0, layer
                    )
                else:
                    current = pack_column(self._infer_ragged(
                        current, previous, layer
                    ))
                columns[column] = current
                previous = layer
            return ColumnarBlock(columns, block.num_rows)

        attrs = {"from_layer": step.from_layer or "image",
                 "to_layer": to_layer}
        if step.layer is None:
            attrs["layers"] = [layer for layer, _ in step.outputs]
        with self.tracer.span(step.span_name, **attrs) as sp:
            release = charge_model_replicas(self.context, self.model_mem_bytes)
            store = self.checkpoint_store
            try:
                result = table.map_blocks(
                    infer_block, name=step.writes,
                    user_alpha=self.user_alpha,
                    checkpoint=(
                        (store, step.stage_id) if store is not None else None
                    ),
                    backend=self._backend_for(step),
                )
            finally:
                release()
            flops = self._meter_inference(
                table.num_rows(), step.from_layer, to_layer
            )
            if self.tracer.enabled:
                sp.add("rows", table.num_rows())
                sp.add("flops", flops)
                sp.add("bytes_out", result.memory_bytes())
        return result

    def _meter_inference(self, num_rows, from_layer, to_layer):
        flops = self.cnn.flops_between(
            from_layer or 0, to_layer
        ) * num_rows
        self.metrics["inference_flops"] += flops
        return flops

    def _join(self, left, right):
        return physical_join(
            left, right, how=self.config.join,
            num_partitions=self.config.num_partitions,
        )

    def _project(self, table, step):
        """``step.layer``'s ``tensor:<layer>`` column of the Eager all-layers
        table, as the ``{id, features, label, tensor}`` train table."""
        def project_block(block):
            if block.num_rows == 0:
                return ColumnarBlock.empty()
            return ColumnarBlock(
                {
                    "id": block.column("id"),
                    "features": block.column("features"),
                    "label": block.column("label"),
                    "tensor": block.column(f"tensor:{step.layer}"),
                },
                block.num_rows,
            )

        return table.map_blocks(project_block, user_alpha=self.user_alpha,
                                backend=self._backend_for(step))

    def _train(self, table, step):
        """A ``TRAIN`` step: concatenate structured + pooled image
        features and hand the matrix to the downstream routine at the
        driver."""
        layer = step.layer

        def pool_one(tensor):
            if isinstance(tensor, TensorList):
                return np.concatenate(pool_feature_tensors(list(tensor)))
            return pool_feature_tensor(tensor)

        def pool_values(tensors):
            """Pooled vectors for an object tensor column: plain ragged
            tensors batch by shape group; TensorList rows concatenate
            their members' pooled vectors."""
            if not any(isinstance(t, TensorList) for t in tensors):
                return pool_feature_tensors(tensors)
            return [pool_one(t) for t in tensors]

        def vectorize_block(block):
            if block.num_rows == 0:
                return ColumnarBlock.empty()
            if block.is_array("tensor"):
                # Zero-copy: pooling reads the stored (N, ...) block.
                pooled = pool_feature_tensor_batch(block.column("tensor"))
            else:
                pooled = pool_values(block.column("tensor"))
            vectors = np.concatenate(
                [np.asarray(block.column("features"), dtype=np.float32),
                 np.asarray(pooled, dtype=np.float32)], axis=1,
            )
            return ColumnarBlock(
                {
                    "id": block.column("id"),
                    "label": block.column("label"),
                    "x": vectors,
                },
                block.num_rows,
            )

        with self.tracer.span(step.span_name, layer=layer) as sp:
            if self.tracer.enabled:
                # The joined train table is the run's measured
                # counterpart of Eq. 16's |T_i| estimate (see
                # _sizing_comparison).
                measured = table.memory_bytes()
                self._measured_table_bytes[layer] = measured
                sp.add("rows", table.num_rows())
                sp.add("bytes_in", measured)
            vectors = table.map_blocks(
                vectorize_block, user_alpha=self.user_alpha,
                backend=self._backend_for(step),
            )
            features, labels = self._collect_train_matrix(vectors)
            with self.tracer.span(f"downstream:{layer}") as down:
                outcome = self.downstream_fn(features, labels)
                down.add("rows", features.shape[0])
                down.add("feature_dim", features.shape[1])
            sp.set("feature_dim", int(features.shape[1]))
        return LayerResult(layer, features.shape[1], outcome)

    def _collect_train_matrix(self, vectors):
        """Gather the vectorized table at the driver as ``(features,
        labels)`` ordered by id (Driver memory is charged by
        :meth:`DistributedTable.collect_block` — crash scenario (4))."""
        block = vectors.collect_block()
        if block.num_rows == 0:
            raise ValueError(f"no rows to train on in {vectors.name}")
        order = np.argsort(block.column("id"), kind="stable")
        features = block.column("x")[order]
        labels = block.column("label")[order].astype(np.int64, copy=False)
        return features, labels

    def _finalize_metrics(self):
        context = self.context
        region_peaks = {
            region.value: max(
                (w.accountant.peak(region) for w in context.workers),
                default=0,
            )
            for region in Region
        }
        # The storage region is managed by the StorageManager, not the
        # accountant, so its observed peak comes from there.
        region_peaks["storage"] = max(
            (w.storage.peak_bytes for w in context.workers), default=0
        )
        region_peaks["driver"] = context.driver.peak(Region.DRIVER)
        region_budgets = {
            region.value: (
                context.workers[0].accountant.capacity(region)
                if context.workers else 0
            )
            for region in Region
        }
        region_budgets["driver"] = context.driver.capacity(Region.DRIVER)
        self.metrics.update(
            {
                "batched_fallback_total": self._batched_fallbacks,
                "shuffle_bytes": context.shuffle_bytes_total,
                "spilled_bytes": context.total_spilled_bytes(),
                "spill_read_bytes": context.total_spill_read_bytes(),
                "tasks_run": sum(w.tasks_run for w in context.workers),
                "storage_peak_bytes": max(
                    (w.storage.peak_bytes for w in context.workers),
                    default=0,
                ),
                "region_peak_bytes": region_peaks,
                "region_budget_bytes": region_budgets,
            }
        )
        if self.checkpoint_store is not None:
            self.metrics.update(self.checkpoint_store.counters())
            self.metrics["recomputation_saved_ratio"] = (
                self.checkpoint_store.saved_ratio()
            )
        recovery = context.recovery_log
        if recovery is not None:
            self.metrics["recovery_log"] = [dict(e) for e in recovery]
        injector = context.fault_injector
        if injector is not None:
            self.metrics["sim_time_s"] = injector.clock.now
            self.metrics["faults_injected"] = dict(injector.injected)
