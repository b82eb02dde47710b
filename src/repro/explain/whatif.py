"""What-if analysis: pin any subset of plan knobs and price the result.

Algorithm 1 answers "what should run"; what-if answers "what would
happen if I ran *this*": pin ``cpu``, the logical plan, the physical
join, the persistence format, or the User/Storage memory fractions,
and get back the feasibility verdict (the optimizer's own Eq. 9-15
terms plus the cost model's crash check), and the one plan walk's
predicted per-region peaks and runtime breakdown
(:mod:`repro.costmodel.runtime`).

A report prices the workload it is handed: ``Vista.explain`` hands it
the executable CNN's ``cnn.stats``, ``repro explain`` the roster's
paper-scale statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import VistaConfig
from repro.core.optimizer import (
    broadcast_or_shuffle,
    enumerate_candidates,
    evaluate_candidate,
)
from repro.core.plans import LogicalPlan, STAGED, plan_by_name
from repro.costmodel import params
from repro.costmodel.crashes import vista_setup
from repro.costmodel.runtime import estimate_plan
from repro.dataflow.partition import DESERIALIZED, SERIALIZED
from repro.explain.peaks import predict_workload_peaks

#: Knobs :func:`what_if` accepts in its ``pins`` mapping.
PIN_KEYS = (
    "cpu", "plan", "join", "persistence",
    "user_fraction", "storage_fraction",
)

#: Verdicts beyond the candidate rejection codes / crash scenarios.
VERDICT_FEASIBLE = "feasible"
VERDICT_USER_UNDER_REQUIREMENT = "user-fraction-under-requirement"
VERDICT_OVERCOMMITTED = "fractions-overcommitted"


@dataclass
class WhatIfReport:
    """Outcome of one what-if question."""

    pins: dict
    plan: str                     # logical plan label, e.g. "staged/aj"
    config: VistaConfig
    candidate: object             # CandidateRecord at the priced cpu
    feasible: bool
    verdict: str                  # VERDICT_FEASIBLE or a failure code
    predicted_peak_bytes: dict    # per worker, per region
    runtime: object               # costmodel RuntimeReport
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "pins": dict(self.pins),
            "plan": self.plan,
            "config": self.config.describe(),
            "candidate": self.candidate.to_dict(),
            "feasible": self.feasible,
            "verdict": self.verdict,
            "predicted_peak_bytes": dict(self.predicted_peak_bytes),
            "runtime": {
                "seconds": self.runtime.seconds,
                "crash": self.runtime.crash,
                "breakdown": dict(self.runtime.breakdown),
                "spilled_bytes": self.runtime.spilled_bytes,
            },
            "notes": list(self.notes),
        }


def cluster_from_resources(resources):
    """A :class:`~repro.costmodel.params.ClusterSpec` matching the
    optimizer's resource description."""
    return params.ClusterSpec(
        num_nodes=resources.num_nodes,
        cores_per_node=resources.cores_per_node,
        system_memory_bytes=resources.system_memory_bytes,
        gpu_memory_bytes=resources.gpu_memory_bytes,
        gpu_flops=params.GPU_FLOPS if resources.has_gpu else 0.0,
    )


def _resolve_plan(pin):
    if pin is None:
        return STAGED
    if isinstance(pin, LogicalPlan):
        return pin
    return plan_by_name(str(pin))


def what_if(workload, resources, pins, downstream=None, backend="spark",
            cluster=None):
    """Price a pinned configuration; returns a :class:`WhatIfReport`.

    ``pins`` maps any subset of :data:`PIN_KEYS` to a value. Unpinned
    knobs fall back to what Algorithm 1 would choose (the first
    feasible candidate; when nothing is feasible, the ``cpu = 1``
    candidate so the report still shows the failing terms). Memory
    fractions apportion the worker memory left after the OS, DL, and
    Core reservations between User and Storage. The predicted peaks
    are :func:`~repro.explain.peaks.predict_workload_peaks` for the
    resulting configuration.
    """
    pins = dict(pins or {})
    unknown = sorted(set(pins) - set(PIN_KEYS))
    if unknown:
        raise ValueError(
            f"unknown what-if pins {unknown}; valid pins: {list(PIN_KEYS)}"
        )
    sizing = workload.sizes
    plan = _resolve_plan(pins.get("plan"))
    notes = []

    # ------------------------------------------------------------------
    # base candidate: the pinned cpu, or Algorithm 1's own pick
    # ------------------------------------------------------------------
    if "cpu" in pins:
        candidate = evaluate_candidate(
            workload, resources, int(pins["cpu"]), downstream=downstream,
            backend=backend,
        )
    else:
        candidate = None
        for record in enumerate_candidates(
            workload, resources, downstream=downstream, backend=backend,
        ):
            candidate = record
            if record.feasible:
                break
        if candidate is not None and not candidate.feasible:
            notes.append(
                "no candidate is feasible; showing the cpu=1 terms"
            )

    reasons = []
    if candidate.rejection is not None:
        reasons.append(candidate.rejection["code"])

    # ------------------------------------------------------------------
    # knob overrides
    # ------------------------------------------------------------------
    join = (
        pins.get("join") or candidate.join or broadcast_or_shuffle(workload)
    )
    persistence = pins.get("persistence") or candidate.persistence or (
        SERIALIZED
        if max(0, candidate.mem_storage_bytes) * resources.num_nodes
        < sizing.s_double
        else DESERIALIZED
    )

    workload_bytes = max(
        0, candidate.mem_worker_bytes - candidate.mem_core_bytes
    )
    user_bytes = candidate.mem_user_bytes
    if "user_fraction" in pins:
        user_bytes = int(float(pins["user_fraction"]) * workload_bytes)
    if "storage_fraction" in pins:
        storage_bytes = int(
            float(pins["storage_fraction"]) * workload_bytes
        )
        if "user_fraction" not in pins:
            user_bytes = workload_bytes - storage_bytes
    else:
        storage_bytes = workload_bytes - user_bytes

    if user_bytes < candidate.mem_user_bytes:
        reasons.append(VERDICT_USER_UNDER_REQUIREMENT)
        notes.append(
            f"pinned User region {user_bytes} B is below the Eq. 10 "
            f"requirement {candidate.mem_user_bytes} B"
        )
    if user_bytes + storage_bytes > workload_bytes:
        reasons.append(VERDICT_OVERCOMMITTED)
        notes.append(
            f"pinned fractions commit {user_bytes + storage_bytes} B of "
            f"the {workload_bytes} B available to User + Storage"
        )
    elif storage_bytes <= 0 and candidate.rejection is None:
        reasons.append(VERDICT_OVERCOMMITTED)
        notes.append("nothing left for the Storage region")

    config = VistaConfig(
        cpu=candidate.cpu,
        num_partitions=candidate.num_partitions,
        mem_storage_bytes=max(0, storage_bytes),
        mem_user_bytes=max(0, user_bytes),
        mem_dl_bytes=candidate.mem_dl_bytes,
        join=join,
        persistence=persistence,
    )

    # ------------------------------------------------------------------
    # verdict: optimizer constraints first, then the crash model
    # ------------------------------------------------------------------
    if cluster is None:
        cluster = cluster_from_resources(resources)
    setup = vista_setup(config, backend=backend, label="what-if")
    setup = setup.with_(
        storage_cap_bytes=config.mem_storage_bytes,
        user_cap_bytes=config.mem_user_bytes,
    )
    runtime = estimate_plan(
        workload, plan, setup, cluster, use_gpu=resources.has_gpu,
        label="what-if",
    )
    crash = runtime.crash
    if crash is not None and crash not in reasons:
        reasons.append(crash)
    verdict = reasons[0] if reasons else VERDICT_FEASIBLE

    return WhatIfReport(
        pins=pins,
        plan=plan.label,
        config=config,
        candidate=candidate,
        feasible=verdict == VERDICT_FEASIBLE,
        verdict=verdict,
        predicted_peak_bytes=predict_workload_peaks(
            workload, config, plan, resources.num_nodes
        ),
        runtime=runtime,
        notes=notes,
    )
