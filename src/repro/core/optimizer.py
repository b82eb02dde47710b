"""The Vista optimizer — Algorithm 1 of the paper.

Given the user's inputs (Table 1A) the optimizer linear-searches the
per-worker degree of parallelism ``cpu`` downward from
``min(cpu_sys, cpu_max) - 1``, and for each candidate checks the
memory constraints of Eqs. 9-15:

  - Eq. 10: User Memory must hold the serialized CNN plus each
    concurrent task's feature partition (times the blowup factor
    alpha), or the downstream models if M runs in PD User Memory.
  - Eq. 11: DL Execution Memory holds ``cpu`` CNN replicas (and M's
    replicas when M is a DL model).
  - Eq. 12: all regions fit in System Memory.
  - Eq. 13-14: ``np`` is a multiple of total worker processes and
    bounds partitions to ``p_max``.
  - Eq. 15: on GPUs, ``cpu`` model replicas fit in GPU memory.

The surviving candidate with the largest ``cpu`` wins (Eq. 8's
simplified objective); remaining variables are then set: Storage gets
the leftover worker memory, the join is broadcast iff |Tstr| fits
``b_max``, and persistence downgrades to serialized when Storage
cannot hold two consecutive intermediates (s_double).

The search itself is exposed through :func:`enumerate_candidates`,
which yields one :class:`CandidateRecord` per ``cpu`` — every Eq. 9-15
memory term plus a structured rejection reason for infeasible
candidates — so EXPLAIN (:mod:`repro.explain`) can show the complete
ledger of the search Algorithm 1 performed. :func:`optimize` is a thin
consumer of the same generator: it stops at the first feasible
candidate, exactly as before.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.config import (
    DownstreamSpec,
    SystemDefaults,
    VistaConfig,
)
from repro.core.sizing import estimate_sizes, static_storage_need
from repro.dataflow.joins import BROADCAST, SHUFFLE
from repro.dataflow.partition import DESERIALIZED, SERIALIZED
from repro.exceptions import NoFeasiblePlan
from repro.metrics import NULL_METRICS
from repro.trace import NULL_TRACER


#: Per-thread inference input buffer: a batch of 32 decoded 227x227x3
#: float32 image tensors ("buffers to read inputs" — Section 4.1 (2)).
BATCH_INPUT_BYTES = 32 * 227 * 227 * 3 * 4

#: |M|_mem model: a base footprint plus bytes proportional to the
#: feature dimension ("|M| is proportional to the sum of structured
#: features and the maximum number of CNN features for any layer").
DOWNSTREAM_BASE_BYTES = 64 * 1024 * 1024
DOWNSTREAM_BYTES_PER_FEATURE = 32 * 1024

#: Structured rejection codes attached to infeasible candidates.
REJECT_GPU = "gpu-memory"                      # Eq. 15
REJECT_HEADROOM = "memory-headroom"            # Eq. 12
REJECT_IGNITE_STORAGE = "ignite-static-storage"


def downstream_mem_bytes(model_stats, layers, num_structured_features):
    """Estimate |M|_mem for the default MLlib-style downstream model."""
    max_dim = max(
        model_stats.layer_stats(layer).transfer_dim for layer in layers
    )
    return DOWNSTREAM_BASE_BYTES + DOWNSTREAM_BYTES_PER_FEATURE * (
        num_structured_features + max_dim
    )


def user_memory_requirement(model_stats, s_single, num_partitions, cpu,
                            downstream_mem, alpha):
    """Eq. 10's User Memory requirement, shared by the optimizer and
    the cost model's crash checks so the two can never disagree.

    We take the *sum* of the inference-side objects (serialized CNN,
    per-thread input batch buffers, per-thread feature partitions) and
    the downstream-model copies rather than Eq. 10's max(): the feature
    TensorLists and M's representations coexist during training, so the
    sum is the safe bound (and it is what makes Ignite's small on-heap
    User region crash at 7 threads in Figure 6).
    """
    partition_bytes = math.ceil(s_single / max(1, num_partitions))
    return (
        model_stats.serialized_bytes
        + cpu * alpha * partition_bytes
        + cpu * alpha * BATCH_INPUT_BYTES
        + cpu * downstream_mem
    )


def num_partitions_for(s_single, cpu, num_nodes, max_partition_bytes):
    """``NumPartitions`` of Algorithm 1: the smallest multiple of the
    total core count whose partitions fit under ``p_max`` (Eqs. 13-14)."""
    total_cores = cpu * num_nodes
    multiples = math.ceil(s_single / (max_partition_bytes * total_cores))
    return max(1, multiples) * total_cores


@dataclass
class CandidateRecord:
    """One row of the Algorithm 1 search ledger: every memory term the
    optimizer computed for one ``cpu`` candidate, plus the verdict.

    All byte quantities are per-worker unless suffixed ``_per_cluster``.
    ``join``/``persistence`` are only determined once a candidate passes
    the Eq. 12 headroom check (Algorithm 1 derives them from the
    surviving candidate's leftover Storage), so they are ``None`` on
    candidates rejected earlier.
    """

    cpu: int
    num_partitions: int
    mem_system_bytes: int          # Eq. 12 left-hand budget
    mem_os_reserved_bytes: int
    mem_dl_bytes: int              # Eq. 11
    mem_worker_bytes: int          # system - OS reserved - DL
    mem_user_bytes: int            # Eq. 10
    mem_core_bytes: int            # committed Core Memory floor
    mem_storage_bytes: int         # leftover; <= 0 when infeasible
    gpu_needed_bytes: int = 0      # Eq. 15 demand (0 without a GPU)
    gpu_capacity_bytes: int = 0
    join: str | None = None
    persistence: str | None = None
    storage_per_cluster_bytes: int = 0
    static_storage_need_bytes: int | None = None   # ignite backend only
    feasible: bool = False
    chosen: bool = False
    rejection: dict | None = None

    def reject(self, code, detail):
        self.feasible = False
        self.rejection = {"code": code, "detail": detail}
        return self

    def region_bytes(self):
        """Per-region predicted requirement/budget of this candidate,
        keyed like the executor's ``region_budget_bytes``."""
        return {
            "user": self.mem_user_bytes,
            "dl": self.mem_dl_bytes,
            "core": self.mem_core_bytes,
            "storage": max(0, self.mem_storage_bytes),
        }

    def to_dict(self):
        return {
            "cpu": self.cpu,
            "num_partitions": self.num_partitions,
            "mem_system_bytes": self.mem_system_bytes,
            "mem_os_reserved_bytes": self.mem_os_reserved_bytes,
            "mem_dl_bytes": self.mem_dl_bytes,
            "mem_worker_bytes": self.mem_worker_bytes,
            "mem_user_bytes": self.mem_user_bytes,
            "mem_core_bytes": self.mem_core_bytes,
            "mem_storage_bytes": self.mem_storage_bytes,
            "gpu_needed_bytes": self.gpu_needed_bytes,
            "gpu_capacity_bytes": self.gpu_capacity_bytes,
            "join": self.join,
            "persistence": self.persistence,
            "storage_per_cluster_bytes": self.storage_per_cluster_bytes,
            "static_storage_need_bytes": self.static_storage_need_bytes,
            "feasible": self.feasible,
            "chosen": self.chosen,
            "rejection": dict(self.rejection) if self.rejection else None,
        }


def config_from_candidate(candidate):
    """The :class:`VistaConfig` a feasible candidate executes as."""
    if not candidate.feasible:
        raise NoFeasiblePlan(
            f"candidate cpu={candidate.cpu} is infeasible: "
            f"{candidate.rejection}"
        )
    return VistaConfig(
        cpu=candidate.cpu,
        num_partitions=candidate.num_partitions,
        mem_storage_bytes=candidate.mem_storage_bytes,
        mem_user_bytes=candidate.mem_user_bytes,
        mem_dl_bytes=candidate.mem_dl_bytes,
        join=candidate.join,
        persistence=candidate.persistence,
    )


def evaluate_candidate(model_stats, layers, dataset_stats, resources,
                       cpu, downstream=None, defaults=None,
                       backend="spark", sizing=None):
    """Evaluate one ``cpu`` candidate exactly as Algorithm 1's loop
    body would, returning its :class:`CandidateRecord` — the verdict,
    every Eq. 9-15 term, and a structured rejection when infeasible.

    What-if analysis calls this directly to price a pinned ``cpu``
    (even one the normal search range would never visit)."""
    downstream = downstream or DownstreamSpec()
    defaults = defaults or SystemDefaults()
    if sizing is None:
        sizing = estimate_sizes(
            model_stats, layers, dataset_stats, alpha=defaults.alpha
        )
    f_mem = model_stats.runtime_mem_bytes
    m_mem = downstream.mem_bytes
    if m_mem is None:
        m_mem = downstream_mem_bytes(
            model_stats, layers, dataset_stats.num_structured_features
        )
    np_ = num_partitions_for(
        sizing.s_single, cpu, resources.num_nodes,
        defaults.max_partition_bytes,
    )
    mem_dl = _dl_memory(cpu, f_mem, downstream, m_mem)
    mem_worker = (
        resources.system_memory_bytes
        - defaults.os_reserved_bytes
        - mem_dl
    )
    mem_user = int(user_memory_requirement(
        model_stats, sizing.s_single, np_, cpu, m_mem, defaults.alpha
    ))
    mem_storage = int(
        mem_worker - mem_user - defaults.core_memory_bytes
    )
    candidate = CandidateRecord(
        cpu=cpu,
        num_partitions=np_,
        mem_system_bytes=resources.system_memory_bytes,
        mem_os_reserved_bytes=defaults.os_reserved_bytes,
        mem_dl_bytes=mem_dl,
        mem_worker_bytes=mem_worker,
        mem_user_bytes=mem_user,
        mem_core_bytes=defaults.core_memory_bytes,
        mem_storage_bytes=mem_storage,
    )
    if resources.has_gpu:
        per_replica = max(
            model_stats.gpu_mem_bytes, downstream.gpu_mem_bytes
        )
        candidate.gpu_needed_bytes = cpu * per_replica
        candidate.gpu_capacity_bytes = resources.gpu_memory_bytes
        if not _gpu_feasible(cpu, model_stats, downstream, resources):
            return candidate.reject(REJECT_GPU, (
                f"Eq. 15: {cpu} model replicas need "
                f"{candidate.gpu_needed_bytes} B of GPU memory, "
                f"only {candidate.gpu_capacity_bytes} B available"
            ))
    if mem_storage <= 0:
        return candidate.reject(REJECT_HEADROOM, (
            f"Eq. 12: User {mem_user} B + Core "
            f"{defaults.core_memory_bytes} B exceed the "
            f"{mem_worker} B left after OS and DL reservations"
        ))
    candidate.join = (
        BROADCAST
        if sizing.structured_table_bytes < defaults.max_broadcast_bytes
        else SHUFFLE
    )
    storage_per_cluster = mem_storage * resources.num_nodes
    candidate.storage_per_cluster_bytes = storage_per_cluster
    candidate.persistence = (
        SERIALIZED if storage_per_cluster < sizing.s_double
        else DESERIALIZED
    )
    if backend == "ignite":
        needed = static_storage_need(
            sizing.s_single, candidate.persistence,
            model_stats.serialized_ratio, alpha=defaults.alpha,
        )
        candidate.static_storage_need_bytes = needed
        if needed > storage_per_cluster:
            return candidate.reject(REJECT_IGNITE_STORAGE, (
                f"Ignite's static Storage region holds "
                f"{storage_per_cluster} B cluster-wide but the "
                f"largest cached stage needs {needed} B; a lower "
                f"cpu frees more Storage"
            ))
    candidate.feasible = True
    return candidate


def enumerate_candidates(model_stats, layers, dataset_stats, resources,
                         downstream=None, defaults=None, backend="spark",
                         sizing=None):
    """Yield a :class:`CandidateRecord` for every ``cpu`` Algorithm 1's
    linear search considers, highest candidate first.

    This is the search itself: :func:`optimize` consumes records until
    the first feasible one, EXPLAIN exhausts the generator for the full
    ledger. Feasibility semantics are bit-identical to the original
    inline loop — each record carries the Eq. 9-15 terms that decided
    its verdict and, when rejected, a structured ``rejection`` with a
    machine-readable ``code`` and a human-readable ``detail``.
    """
    defaults = defaults or SystemDefaults()
    if sizing is None:
        sizing = estimate_sizes(
            model_stats, layers, dataset_stats, alpha=defaults.alpha
        )
    upper = min(resources.cores_per_node, defaults.cpu_max) - 1
    for cpu in range(max(1, upper), 0, -1):
        yield evaluate_candidate(
            model_stats, layers, dataset_stats, resources, cpu,
            downstream=downstream, defaults=defaults, backend=backend,
            sizing=sizing,
        )


def optimize(model_stats, layers, dataset_stats, resources,
             downstream=None, defaults=None, backend="spark",
             tracer=None, metrics=None):
    """Run Algorithm 1 and return a :class:`VistaConfig`.

    Raises :class:`NoFeasiblePlan` when System Memory cannot satisfy
    the constraints for any ``cpu`` (line 18 of Algorithm 1).

    ``backend="ignite"`` adds one constraint beyond the paper's
    algorithm: Ignite's memory-only Storage region is static and cannot
    spill, so the Staged plan's largest cached stage (under the chosen
    persistence format) must fit cluster-wide Storage — otherwise the
    candidate ``cpu`` is rejected (lower cpu frees more Storage) and
    ultimately NoFeasiblePlan is raised.

    With a ``tracer`` (:class:`~repro.trace.Tracer`), the search runs
    under an ``optimize`` span recording the chosen configuration, how
    many ``cpu`` candidates were rejected, and the Eq. 16 size
    estimates the decision rested on — so traces can be checked against
    what the executor actually measured.

    With a ``metrics`` registry, the chosen configuration's per-region
    requirements (Eqs. 10-11 and the storage working set) are published
    as ``predicted_peak_bytes`` gauges, so a metrics-enabled run
    records the optimizer's prediction next to the observed occupancy
    peaks and estimate error becomes a first-class metric. (The chosen
    knobs travel as themselves: the ``optimize`` span's ``chosen`` attr
    and the run ledger's ``optimizer_decision`` event, which the
    ``exact-plan-choice`` SLO rule compares between twin runs.)
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    downstream = downstream or DownstreamSpec()
    defaults = defaults or SystemDefaults()
    sizing = estimate_sizes(
        model_stats, layers, dataset_stats, alpha=defaults.alpha
    )
    with tracer.span("optimize", backend=backend,
                     model=model_stats.name) as span:
        span.set("estimated_table_bytes",
                 dict(sizing.intermediate_table_bytes))
        span.set("s_single", sizing.s_single)
        span.set("s_double", sizing.s_double)
        upper = min(resources.cores_per_node, defaults.cpu_max) - 1
        for candidate in enumerate_candidates(
            model_stats, layers, dataset_stats, resources,
            downstream=downstream, defaults=defaults, backend=backend,
            sizing=sizing,
        ):
            if not candidate.feasible:
                span.add("candidates_rejected")
                continue
            candidate.chosen = True
            config = config_from_candidate(candidate)
            span.set("chosen", {
                "cpu": config.cpu,
                "num_partitions": config.num_partitions,
                "join": config.join,
                "persistence": config.persistence,
                "mem_storage_bytes": config.mem_storage_bytes,
                "mem_user_bytes": config.mem_user_bytes,
                "mem_dl_bytes": config.mem_dl_bytes,
            })
            _record_predictions(
                metrics, config, sizing, resources, defaults,
                model_stats,
            )
            return config
        raise NoFeasiblePlan(
            f"no cpu in [1, {max(1, upper)}] satisfies the memory "
            f"constraints for {model_stats.name} on "
            f"{resources.system_memory_bytes} B nodes; "
            "provision machines with more memory"
        )


def _record_predictions(metrics, config, sizing, resources, defaults,
                        model_stats):
    """Publish the optimizer's per-worker peak predictions: Eq. 10
    (User), Eq. 11 (DL), and the Staged plan's two-consecutive-
    intermediates storage working set, so reports can score predicted
    vs observed occupancy."""
    if not metrics.enabled:
        return
    storage_need = static_storage_need(
        sizing.s_double, config.persistence,
        model_stats.serialized_ratio, alpha=defaults.alpha,
    )
    predictions = {
        "user": config.mem_user_bytes,
        "dl": config.mem_dl_bytes,
        "storage": storage_need // max(1, resources.num_nodes),
    }
    for region, nbytes in predictions.items():
        metrics.gauge("predicted_peak_bytes", region=region).set(
            int(nbytes)
        )


def _dl_memory(cpu, f_mem, downstream, m_mem):
    """Eq. 11: DL Execution Memory requirement."""
    if downstream.in_dl_system:
        return cpu * max(f_mem, m_mem)
    return cpu * f_mem


def _gpu_feasible(cpu, model_stats, downstream, resources):
    """Eq. 15: GPU memory constraint (vacuously true without a GPU)."""
    if not resources.has_gpu:
        return True
    per_replica = max(model_stats.gpu_mem_bytes, downstream.gpu_mem_bytes)
    return cpu * per_replica < resources.gpu_memory_bytes
