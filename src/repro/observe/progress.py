"""The live progress monitor: predicted-vs-observed stages and ETA.

Vista's whole pitch is pricing a run *before* it executes (Algorithm 1
over the Eq. 9–16 cost model). This module closes the loop while the
run is in flight: :func:`predict_stage_plan` turns the cost model's
runtime breakdown into an ordered list of stages the executor will
emit — the span names of the plan's
:func:`~repro.core.plans.compile_plan` steps, each with predicted
seconds — and :class:`ProgressState`
consumes the run ledger's events live, marking stages done as their
spans close and estimating time-to-completion.

The ETA is *online-calibrated*: raw cost-model seconds are paper-scale
absolutes that can drift far from a mini-scale container run (the
end-to-end benchmark reports ``costmodel.predicted_over_observed`` in
the hundreds), but the *relative* stage
weights track the workload shape. So the ETA scales the predicted
remaining seconds by the observed/predicted ratio over the stages
already finished::

    eta = (observed_done / predicted_done) × predicted_remaining

which converges on the true remaining time as stages complete — the
predicted-vs-observed progress bar doubles as an online calibration
measurement (``tests/test_observe.py`` holds the half-way ETA within
2x of the wall time actually remaining).
"""

from __future__ import annotations

from repro.core.plans import Op, compile_plan


class Stage:
    """One predicted stage of a run."""

    __slots__ = ("key", "matcher", "predicted_s",
                 "done", "observed_s", "end_wall_s")

    def __init__(self, key, matcher, predicted_s):
        self.key = key
        self.matcher = matcher
        self.predicted_s = float(predicted_s)
        self.done = False
        self.observed_s = None
        self.end_wall_s = None

    def matches(self, span_name):
        return (span_name == self.matcher
                or span_name.startswith(self.matcher + ":"))

    def to_dict(self):
        return {"key": self.key, "matcher": self.matcher,
                "predicted_s": round(self.predicted_s, 6)}

    def __repr__(self):
        state = "done" if self.done else "pending"
        return f"<Stage {self.key}: {self.predicted_s:.3f}s {state}>"


class StagePlan:
    """The ordered stage list one run is expected to execute."""

    def __init__(self, stages, plan_label=None):
        self.stages = list(stages)
        self.plan_label = plan_label

    @property
    def total_predicted_s(self):
        return sum(stage.predicted_s for stage in self.stages)

    def to_list(self):
        return [stage.to_dict() for stage in self.stages]

    @classmethod
    def from_list(cls, entries, plan_label=None):
        return cls(
            [Stage(e["key"], e["matcher"], e["predicted_s"])
             for e in entries],
            plan_label=plan_label,
        )

    def __len__(self):
        return len(self.stages)

    def __repr__(self):
        return (f"<StagePlan {self.plan_label or '?'}: "
                f"{len(self.stages)} stages, "
                f"{self.total_predicted_s:.2f}s predicted>")


def _stage_sequence(plan, layers):
    """The ordered ``(key, matcher, step)`` triples the executor's span
    stream will produce for a logical plan: ``read``, then every
    compiled step that opens a span (``step`` is None for ``read``)."""
    sequence = [("read", "read", None)]
    for step in compile_plan(plan, layers):
        name = step.span_name
        if name is None:
            continue
        # Keyed by stage kind plus the one layer the step serves.
        kind = name.split(":")[0]
        key = f"{kind}:{step.layer}" if step.layer else kind
        sequence.append((key, name, step))
    return sequence


def predict_stage_plan(model_stats, layers, dataset_stats, plan, config,
                       resources, backend="spark"):
    """Build the :class:`StagePlan` for a workload from the cost
    model: Eq. 9–15 stage seconds distributed over the span sequence
    the executor will emit."""
    from repro.costmodel import estimate_runtime, vista_setup
    from repro.costmodel.cnn_cost import per_layer_inference_flops
    from repro.explain.whatif import cluster_from_resources

    layers = list(layers)
    setup = vista_setup(config, backend=backend)
    cluster = cluster_from_resources(resources)
    breakdown = None
    try:
        report = estimate_runtime(
            model_stats, layers, dataset_stats, plan, setup, cluster
        )
        if not report.crashed:
            breakdown = dict(report.breakdown)
    except Exception:
        breakdown = None
    flops = per_layer_inference_flops(
        model_stats, layers, dataset_stats.num_records,
        plan.materialization,
    )
    total_flops = sum(flops.values()) or 1.0
    if breakdown is None:
        # The cost model predicts a crash (or cannot price the plan):
        # fall back to FLOPs-proportional weights with nominal shares
        # for the non-inference stages, so progress still renders.
        inference_total = 1.0
        breakdown = {"read": 0.05, "join": 0.05, "train": 0.25,
                     "inference": inference_total}
    sequence = _stage_sequence(plan, layers)
    ops = [step.op if step else None for _, _, step in sequence]
    inference_total = breakdown.get("inference", 0.0)
    weights = []
    for _, _, step in sequence:
        if step is None:
            weight = breakdown.get("read", 0.0)
        elif step.op is Op.JOIN:
            weight = breakdown.get("join", 0.0) / ops.count(Op.JOIN)
        elif step.op is Op.TRAIN:
            weight = breakdown.get("train", 0.0) / ops.count(Op.TRAIN)
        else:  # INFER: its layers' share of the inference FLOPs
            weight = inference_total * sum(
                flops.get(layer, 0.0) for layer, _ in step.outputs
            ) / total_flops
        weights.append(weight)
    # Spill/serde/overhead seconds have no span of their own: spread
    # them proportionally so stage weights sum to the predicted total.
    stage_total = sum(weights)
    full_total = sum(breakdown.values())
    if stage_total > 0 and full_total > stage_total:
        scale = full_total / stage_total
        weights = [w * scale for w in weights]
    floor = max(stage_total, 1e-9) * 1e-4
    stages = [
        Stage(key, matcher, max(weight, floor))
        for (key, matcher, _), weight in zip(sequence, weights)
    ]
    return StagePlan(stages, plan_label=plan.label)


class ProgressState:
    """Consumes ledger events and tracks stage completion and ETA."""

    def __init__(self, stage_plan):
        self.plan = stage_plan
        self.started_wall_s = 0.0
        self.last_wall_s = 0.0
        #: intra-stage progress: committed tasks of the stage in flight
        self.current_tasks_total = 0
        self.current_tasks_done = 0
        self.run_ended = False
        self.run_status = None
        #: ``(wall_s, fraction, eta_s, stage_key)`` snapshots taken at
        #: every stage completion — what the ETA bench reads back.
        self.snapshots = []

    # ------------------------------------------------------------------
    def on_event(self, event):
        """Feed one ledger event; returns the stage just completed (a
        :class:`Stage`) when the event closed one, else None."""
        kind = event.get("kind")
        wall = float(event.get("wall_s") or 0.0)
        self.last_wall_s = max(self.last_wall_s, wall)
        if kind == "stage_tasks":
            self.current_tasks_total = int(event.get("partitions") or 0)
            self.current_tasks_done = 0
            return None
        if kind == "task_commit":
            self.current_tasks_done += 1
            return None
        if kind == "run_end":
            self.run_ended = True
            self.run_status = event.get("status")
            return None
        if kind != "span_end":
            return None
        stage = self.next_stage()
        if stage is None or not stage.matches(event.get("name", "")):
            return None
        stage.done = True
        stage.observed_s = float(
            event.get("span_s") if event.get("span_s") is not None
            else 0.0
        )
        stage.end_wall_s = wall
        self.current_tasks_total = 0
        self.current_tasks_done = 0
        self.snapshots.append(
            (wall, self.fraction(), self.eta_s(), stage.key)
        )
        return stage

    # Ledger listeners are plain callables.
    __call__ = on_event

    # ------------------------------------------------------------------
    def next_stage(self):
        for stage in self.plan.stages:
            if not stage.done:
                return stage
        return None

    def stages_done(self):
        return sum(1 for stage in self.plan.stages if stage.done)

    def _partial(self):
        """Fraction of the in-flight stage completed (task commits)."""
        if self.current_tasks_total <= 0:
            return 0.0
        return min(
            1.0, self.current_tasks_done / self.current_tasks_total
        )

    def fraction(self):
        """Predicted-weight fraction of the run completed, in [0, 1]."""
        total = self.plan.total_predicted_s
        if total <= 0:
            done = self.stages_done()
            return done / len(self.plan) if len(self.plan) else 1.0
        done_weight = sum(
            stage.predicted_s for stage in self.plan.stages if stage.done
        )
        current = self.next_stage()
        if current is not None:
            done_weight += current.predicted_s * self._partial()
        return min(1.0, done_weight / total)

    def calibration_ratio(self):
        """Observed/predicted seconds over completed stages (1.0 until
        the first stage completes) — the global online calibration
        factor."""
        observed = sum(
            stage.observed_s or 0.0
            for stage in self.plan.stages if stage.done
        )
        predicted = sum(
            stage.predicted_s
            for stage in self.plan.stages if stage.done
        )
        if predicted <= 0 or observed <= 0:
            return 1.0
        return observed / predicted

    @staticmethod
    def _bucket(stage):
        return stage.key.split(":", 1)[0]

    def bucket_ratios(self):
        """Observed/predicted calibration per stage *kind* (read,
        join, inference, train). The cost model's relative weights can
        drift differently per kind at mini scale (paper-scale train
        iterations vs a toy logistic regression), but per-layer loops
        repeat the same kinds — so the already-finished ``train:fc7``
        prices the pending ``train:fc8`` far better than any global
        ratio can."""
        observed = {}
        predicted = {}
        for stage in self.plan.stages:
            if not stage.done:
                continue
            bucket = self._bucket(stage)
            observed[bucket] = (
                observed.get(bucket, 0.0) + (stage.observed_s or 0.0)
            )
            predicted[bucket] = (
                predicted.get(bucket, 0.0) + stage.predicted_s
            )
        return {
            bucket: observed[bucket] / predicted[bucket]
            for bucket in observed
            if predicted.get(bucket, 0.0) > 0 and observed[bucket] > 0
        }

    def _bucket_models(self):
        """Per-bucket estimators fitted online from completed stages:
        ``bucket -> ("affine", intercept, slope) | ("ratio", r, None)``.

        A pure observed/predicted ratio breaks when predictions inside
        a bucket span orders of magnitude but observed cost is flat —
        mini-scale inference is fixed-overhead-bound, so ``conv5``'s
        huge FLOP prediction next to ``fc8``'s tiny one poisons a
        shared ratio. With two or more distinct predicted values the
        least-squares affine fit ``observed = a + b * predicted``
        separates the fixed per-stage cost (intercept) from the truly
        workload-proportional part (slope); buckets with identical
        predictions (the train stages) keep the plain ratio."""
        by_bucket = {}
        for stage in self.plan.stages:
            if stage.done:
                by_bucket.setdefault(self._bucket(stage), []).append(
                    (stage.predicted_s, stage.observed_s or 0.0)
                )
        models = {}
        for bucket, points in by_bucket.items():
            pred_total = sum(p for p, _ in points)
            obs_total = sum(o for _, o in points)
            count = len(points)
            mean_pred = pred_total / count
            variance = sum((p - mean_pred) ** 2 for p, _ in points)
            if count >= 2 and variance > 1e-12 * max(1.0, mean_pred**2):
                mean_obs = obs_total / count
                slope = sum(
                    (p - mean_pred) * (o - mean_obs) for p, o in points
                ) / variance
                if slope >= 0:
                    models[bucket] = (
                        "affine", mean_obs - slope * mean_pred, slope,
                    )
                    continue
            if pred_total > 0 and obs_total > 0:
                models[bucket] = ("ratio", obs_total / pred_total, None)
        return models

    def _wall_inflation(self):
        """Wall seconds elapsed per span-observed second so far. Stage
        spans miss the inter-stage wall cost — process forks/collects,
        result serialization, the monitor itself — so an ETA built from
        span-calibrated stage times alone lands systematically short.
        Elapsed wall over summed observed spans is exactly that missing
        multiplier; clamped to [1, 4] so one slow fork early in the run
        cannot blow the estimate up."""
        observed = sum(
            stage.observed_s or 0.0
            for stage in self.plan.stages if stage.done
        )
        if observed <= 0 or self.last_wall_s <= 0:
            return 1.0
        return min(4.0, max(1.0, self.last_wall_s / observed))

    def eta_s(self):
        """Estimated remaining seconds: each unfinished stage priced
        by its kind's fitted online model (affine or ratio, see
        :meth:`_bucket_models`; global ratio as fallback), scaled by
        the run's wall-vs-span inflation."""
        models = self._bucket_models()
        fallback = self.calibration_ratio()
        remaining = 0.0
        current = self.next_stage()
        for stage in self.plan.stages:
            if stage.done:
                continue
            model = models.get(self._bucket(stage))
            if model is None:
                estimate = stage.predicted_s * fallback
            elif model[0] == "affine":
                estimate = max(
                    0.0, model[1] + model[2] * stage.predicted_s
                )
            else:
                estimate = stage.predicted_s * model[1]
            if stage is current:
                estimate *= 1.0 - self._partial()
            remaining += estimate
        return remaining * self._wall_inflation()

    def __repr__(self):
        return (f"<ProgressState {self.stages_done()}/{len(self.plan)} "
                f"stages, {self.fraction() * 100:.0f}%>")


def replay_progress(events):
    """Rebuild the progress view a ledger recorded: the ``stage_plan``
    event restores the cost-model predictions, then every event
    replays through the same :class:`ProgressState` the live monitor
    uses. None when the ledger carries no stage plan."""
    plan_event = next(
        (e for e in events if e.get("kind") == "stage_plan"), None
    )
    if plan_event is None or not plan_event.get("stages"):
        return None
    state = ProgressState(StagePlan.from_list(
        plan_event["stages"], plan_label=plan_event.get("plan")
    ))
    for event in events:
        state.on_event(event)
    return state


class ProgressRenderer:
    """Ledger listener that prints a line as each stage completes —
    what ``repro run --progress`` attaches."""

    def __init__(self, stage_plan, stream=None):
        import sys

        self.state = ProgressState(stage_plan)
        self.stream = stream if stream is not None else sys.stdout

    def __call__(self, event):
        completed = self.state.on_event(event)
        state = self.state
        if completed is not None:
            print(
                f"progress: {completed.key} done in "
                f"{completed.observed_s:.3f}s (predicted "
                f"{completed.predicted_s:.3f}s) — "
                f"{state.stages_done()}/{len(state.plan)} stages, "
                f"{state.fraction() * 100:.0f}% weighted, "
                f"eta {state.eta_s():.2f}s",
                file=self.stream,
            )
        elif event.get("kind") == "run_end":
            print(
                f"progress: run {event.get('status', 'done')} at "
                f"{event.get('wall_s', 0.0):.3f}s "
                f"({state.stages_done()}/{len(state.plan)} stages)",
                file=self.stream,
            )


def render_progress(state, width=30):
    """Full progress table for ``repro top``: per-stage predicted vs
    observed seconds, the in-flight stage's task commits, and the
    calibrated ETA."""
    plan = state.plan
    lines = [
        f"### progress — plan {plan.plan_label or '?'}, "
        f"{state.stages_done()}/{len(plan)} stages, "
        f"{state.fraction() * 100:.0f}% weighted"
    ]
    current = state.next_stage()
    for stage in plan.stages:
        if stage.done:
            status = "done"
            observed = f"{stage.observed_s:>9.3f}s"
        elif stage is current and not state.run_ended:
            tasks = ""
            if state.current_tasks_total:
                tasks = (f" ({state.current_tasks_done}/"
                         f"{state.current_tasks_total} tasks)")
            status = f"running{tasks}"
            observed = " " * 9 + "—"
        else:
            status = "pending"
            observed = " " * 9 + "—"
        bar_fill = int(round(
            width * (stage.predicted_s / plan.total_predicted_s)
        )) if plan.total_predicted_s else 0
        lines.append(
            f"  {stage.key:<18s} {stage.predicted_s:>9.3f}s {observed} "
            f"|{'#' * bar_fill:<{width}s}| {status}"
        )
    if state.run_ended:
        lines.append(
            f"  run {state.run_status or 'done'} at "
            f"{state.last_wall_s:.3f}s elapsed"
        )
    else:
        lines.append(
            f"  ETA {state.eta_s():.2f}s (elapsed {state.last_wall_s:.3f}s, "
            f"calibration ×{state.calibration_ratio():.3g})"
        )
    return "\n".join(lines)
