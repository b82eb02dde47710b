"""Plan EXPLAIN: the complete candidate ledger of Algorithm 1.

``optimize`` returns only the winner; :func:`explain` re-runs the same
linear search on ``cpu`` and keeps *every* candidate — the Eq. 9-15
memory terms per region, the Eq. 16 intermediate-size estimates, the
join and persistence choices, and a structured rejection reason for
each infeasible candidate — so "why did the optimizer pick cpu=7?"
and "why is cpu=8 not considered?" have inspectable answers.

The result renders as an ASCII table
(:func:`repro.report.explain_ascii.render_explain`) and exports as a
JSON-safe dict (:meth:`ExplainResult.to_dict`, what ``repro explain
--json PATH`` writes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimizer import enumerate_candidates
from repro.explain.whatif import what_if

#: Mirrors the NoFeasiblePlan message ``optimize`` raises.
NO_FEASIBLE_MESSAGE = (
    "no feasible configuration: the workload does not fit the cluster"
)


@dataclass
class ExplainResult:
    """Everything Algorithm 1 looked at while choosing a plan."""

    model: str
    layers: list
    num_records: int
    backend: str
    num_nodes: int
    sizing: object                      # SizingReport
    candidates: list                    # CandidateRecord, search order
    chosen: object = None               # the winning CandidateRecord
    what_if: object = None              # optional WhatIfReport

    @property
    def feasible(self):
        return self.chosen is not None

    def rejected(self):
        return [c for c in self.candidates if c.rejection is not None]

    def to_dict(self):
        return {
            "model": self.model,
            "layers": list(self.layers),
            "num_records": self.num_records,
            "backend": self.backend,
            "num_nodes": self.num_nodes,
            "sizing": {
                "structured_table_bytes": self.sizing.structured_table_bytes,
                "image_table_bytes": self.sizing.image_table_bytes,
                "intermediate_table_bytes": dict(
                    self.sizing.intermediate_table_bytes
                ),
                "s_single": self.sizing.s_single,
                "s_double": self.sizing.s_double,
            },
            "candidates": [c.to_dict() for c in self.candidates],
            "chosen": self.chosen.to_dict() if self.chosen else None,
            "feasible": self.feasible,
            "message": None if self.feasible else NO_FEASIBLE_MESSAGE,
            "what_if": self.what_if.to_dict() if self.what_if else None,
        }


def explain(workload, resources, downstream=None, backend="spark",
            what_if_pins=None, executable=None):
    """Run Algorithm 1's search on a :class:`~repro.core.config
    .Workload`, keeping the full candidate ledger.

    The search is identical to :func:`repro.core.optimizer.optimize`
    (same ``evaluate_candidate`` per cpu) but exhausts the whole range
    instead of stopping at the first feasible candidate, so the ledger
    also shows what the optimizer never needed to look at. The first
    feasible candidate — the one ``optimize`` would return — is marked
    ``chosen``.

    Passing ``what_if_pins`` attaches a :class:`~repro.explain.whatif
    .WhatIfReport` for that pinned configuration (with mini-scale run
    peaks when an ``executable`` workload is supplied).
    """
    candidates = []
    chosen = None
    for candidate in enumerate_candidates(
        workload, resources, downstream=downstream, backend=backend,
    ):
        if chosen is None and candidate.feasible:
            candidate.chosen = True
            chosen = candidate
        candidates.append(candidate)
    report = None
    if what_if_pins is not None:
        report = what_if(
            workload, resources, pins=what_if_pins, downstream=downstream,
            backend=backend, executable=executable,
        )
    return ExplainResult(
        model=workload.model_stats.name,
        layers=list(workload.layers),
        num_records=workload.dataset_stats.num_records,
        backend=backend,
        num_nodes=resources.num_nodes,
        sizing=workload.sizes,
        candidates=candidates,
        chosen=chosen,
        what_if=report,
    )
