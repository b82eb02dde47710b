"""Logical execution plans (Section 4.2.1, Figure 5).

The five plans the paper compares factor into two orthogonal choices:

  materialization x join placement
  -------------------------------------------------------------
  Lazy   / join after inference   = Figure 5(A)  "Lazy"
  Lazy   / join before inference  = Figure 5(B)  "Lazy-Reordered"
  Eager  / join after inference   = Figure 5(C)  "Eager"
  Eager  / join before inference  = Figure 5(D)  "Eager-Reordered"
  Staged / join before inference  = Figure 5(E)  "Staged" (Vista)

Section 5.3 labels join placement from the inference side: "AJ"
(inference After Join, i.e. the join is pulled below inference) and
"BJ" (inference Before Join). Vista's default — validated by Figure 9
— is Staged/AJ.

:func:`compile_plan` turns either choice into the ordered operator
list (join, (partial) inference, cache/unpersist, project, train) that
the executor runs and the cost model's plan walk prices and predicts
the memory peaks of — the only place a plan's shape is written down.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Materialization(enum.Enum):
    """How feature layers are materialized across L."""

    LAZY = "lazy"       # one independent full-inference pass per layer
    EAGER = "eager"     # all layers in one pass, held at once
    STAGED = "staged"   # partial inference staged layer-to-layer


class JoinPlacement(enum.Enum):
    """Where the Tstr-Timg key-key join sits relative to inference."""

    AFTER_JOIN = "aj"    # join first, inference on the joined table
    BEFORE_JOIN = "bj"   # inference first, join features afterwards


@dataclass(frozen=True)
class LogicalPlan:
    """One point in the logical plan space."""

    materialization: Materialization
    join_placement: JoinPlacement

    @property
    def label(self):
        return f"{self.materialization.value}/{self.join_placement.value}"

    def __str__(self):
        return self.label


#: The paper's five named plans.
LAZY = LogicalPlan(Materialization.LAZY, JoinPlacement.BEFORE_JOIN)
LAZY_REORDERED = LogicalPlan(Materialization.LAZY, JoinPlacement.AFTER_JOIN)
EAGER = LogicalPlan(Materialization.EAGER, JoinPlacement.BEFORE_JOIN)
EAGER_REORDERED = LogicalPlan(Materialization.EAGER, JoinPlacement.AFTER_JOIN)
STAGED = LogicalPlan(Materialization.STAGED, JoinPlacement.AFTER_JOIN)
STAGED_BJ = LogicalPlan(Materialization.STAGED, JoinPlacement.BEFORE_JOIN)

ALL_PLANS = {
    "lazy": LAZY,
    "lazy-reordered": LAZY_REORDERED,
    "eager": EAGER,
    "eager-reordered": EAGER_REORDERED,
    "staged": STAGED,
    "staged-bj": STAGED_BJ,
}


def plan_by_name(name):
    try:
        return ALL_PLANS[name]
    except KeyError:
        raise ValueError(
            f"unknown plan {name!r}; choose from {sorted(ALL_PLANS)}"
        ) from None


class Op(enum.Enum):
    """The operator vocabulary every plan compiles to."""

    JOIN = "join"            # T_str joined with the table in ``reads``
    INFER = "infer"          # partial CNN inference over ``reads``
    CACHE = "cache"          # persist ``reads`` in Storage
    UNPERSIST = "unpersist"  # release a cached ``reads``
    PROJECT = "project"      # pick ``layer``'s tensor column out of ``reads``
    TRAIN = "train"          # vectorize ``reads`` and fit ``layer``'s model


#: Slot of the table inference starts from: T_img, or the
#: pre-materialized base layer's feature table.
SOURCE = "source"


@dataclass(frozen=True)
class Step:
    """One operator application over named table slots.

    ``layer`` is the one feature layer the step serves: the layer a
    ``PROJECT``/``TRAIN`` works on, the target of a one-layer ``INFER``
    (None when it materializes every layer at once — Eager), the layer
    whose feature table a ``JOIN`` joins (None when the join is shared
    by all layers). An ``INFER`` runs the CNN from ``from_layer`` (None
    = raw image) through ``outputs`` — ordered ``(layer, output
    column)`` pairs — carrying the ``keep`` columns through; the slot
    it ``writes`` doubles as its output table's name.
    """

    op: Op
    reads: str
    writes: str = None
    layer: str = None
    from_layer: str = None
    outputs: tuple = ()
    keep: tuple = ()

    @property
    def span_name(self):
        """Name of the trace span the step runs under (``join`` stands
        for ``join:<operator>``); None for steps that open none."""
        if self.op is Op.JOIN:
            return "join"
        if self.op is Op.INFER:
            return f"inference:{self.layer or 'eager'}"
        if self.op is Op.TRAIN:
            return f"train:{self.layer}"
        return None

    @property
    def stage_id(self):
        """Checkpoint stage id of the step's durable ``map_blocks``
        stage; None for steps that have none. Only ``INFER`` outputs
        are stored: the vectorized train table is a pool + concat of
        one, cheaper to rebuild on resume than to persist."""
        if self.op is Op.INFER:
            return (
                f"{'infer' if self.layer else 'eager'}:"
                f"{self.from_layer or 'image'}->{self.outputs[-1][0]}"
                + ("+aj" if self.keep else "")
            )
        return None


def infer_step(reads, from_layer, layer, keep=()):
    """The one-layer ``INFER`` step ``f̂_{from_layer→layer}``."""
    return Step(
        Op.INFER, reads, f"t_{layer}", layer=layer, from_layer=from_layer,
        outputs=((layer, "tensor"),), keep=keep,
    )


def compile_plan(plan, layers, source_layer=None):
    """Figure 5 as data: the ordered :class:`Step` tuple ``plan`` runs
    for ``layers``, starting inference at ``source_layer`` (None = raw
    images). The executor runs this one list, and
    :func:`repro.costmodel.runtime.walk_plan` is its one reader: for
    the cost, the crash check, the progress monitor and every predicted
    region peak."""
    layers = list(layers)
    after_join = plan.join_placement is JoinPlacement.AFTER_JOIN
    # Inference after the join carries T_str's columns through.
    keep = ("features", "label") if after_join else ()
    steps = []
    base = SOURCE
    if after_join:
        steps.append(Step(Op.JOIN, SOURCE, "joined"))
        base = "joined"

    if plan.materialization is Materialization.EAGER:
        table = "t_eager"
        steps.append(Step(
            Op.INFER, base, table, from_layer=source_layer,
            outputs=tuple((layer, f"tensor:{layer}") for layer in layers),
            keep=keep,
        ))
        if not after_join:
            steps.append(Step(Op.JOIN, table, "joined"))
            table = "joined"
        # The all-layers table must persist across |L| training runs —
        # this cache is where Eager crashes (Ignite) or spills (Spark).
        steps.append(Step(Op.CACHE, table))
        for layer in layers:
            steps.append(Step(Op.PROJECT, table, "projected", layer=layer))
            steps.append(Step(Op.TRAIN, "projected", layer=layer))
        steps.append(Step(Op.UNPERSIST, table))
        return tuple(steps)

    staged = plan.materialization is Materialization.STAGED
    cached = None
    for layer in layers:
        features = infer_step(base, source_layer, layer, keep)
        steps.append(features)
        table = features.writes
        if staged:
            # Cache the new stage before releasing the one it was
            # computed from: two consecutive stages coexist in Storage.
            steps.append(Step(Op.CACHE, table))
            if cached is not None:
                steps.append(Step(Op.UNPERSIST, cached))
            cached = base = table
            source_layer = layer
        if not after_join:
            steps.append(Step(Op.JOIN, table, "joined", layer=layer))
            table = "joined"
        steps.append(Step(Op.TRAIN, table, layer=layer))
    if cached is not None:
        steps.append(Step(Op.UNPERSIST, cached))
    return tuple(steps)


def redundant_flops(model_stats, layers):
    """Computational redundancy of Lazy relative to Staged (Sec. 4.2.1):
    FLOPs Lazy spends that Staged avoids by fusing the |L| queries.

    Lazy runs full inference from the raw image to every layer; Staged
    pays for the deepest layer's path exactly once.
    """
    layers = list(layers)
    lazy = sum(
        model_stats.layer_stats(layer).flops_from_input for layer in layers
    )
    staged = model_stats.layer_stats(layers[-1]).flops_from_input
    return lazy - staged
