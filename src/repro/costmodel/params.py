"""Calibrated cost-model constants and cluster specifications.

The paper's runtime figures were measured on an 8-node CloudLab
cluster (32 GB RAM, 8-core Xeon @2 GHz, HDDs, Spark 2.2/TF 1.3) and a
single GPU workstation (Titan X 12 GB, SSD). We cannot re-run that
testbed, so this module pins an analytical model's constants to the
paper's own measured anchors:

- Per-node CNN inference throughput is calibrated so the Table 3
  breakdown reproduces (e.g. ResNet50 inference + first LR iteration
  over Foods on 1 node ~= 19 min at cpu=4); per-model efficiency
  factors reflect that VGG's large GEMMs run closer to peak than
  ResNet's small kernels.
- TF uses all cores regardless of the ``cpu`` setting (paper footnote
  2), so throughput follows an Amdahl-style curve in ``cpu`` that
  plateaus around 4 cores (Figure 12C).
- Image reading pays the HDFS "small files" penalty: per-file latency
  dominates and scales sub-linearly with nodes (Table 3 read rows).
- Serialized persistence drops the zeros of ReLU feature data;
  AlexNet features shrink most (13% non-zeros vs ~36% — Appendix A).

Every constant is a plain module attribute so ablation benches can
monkeypatch them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.model import GB, MB

# ---------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------
#: Effective FLOP/s of one node at cpu=1 before model efficiency.
NODE_FLOPS_BASE = 4.6e10

#: Amdahl parallel fraction for the cpu-speedup curve (Figure 12C).
CPU_PARALLEL_FRACTION = 0.78

#: Per-model effective GEMM efficiency (calibrated to Table 3).
MODEL_COMPUTE_EFFICIENCY = {"alexnet": 1.65, "vgg16": 2.1, "resnet50": 1.0}

#: Effective GPU FLOP/s (Titan X Pascal, fp32, realistic utilization).
GPU_FLOPS = 3.0e12

#: Downstream-model training: FLOPs multiplier per (record x feature).
TRAIN_FLOPS_PER_CELL = 6.0
TRAIN_ITERATIONS = 10
TRAIN_ITERATION_OVERHEAD_S = 2.0

# ---------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------
#: HDFS small-files read: per-image latency and node-scaling exponent.
IMAGE_READ_SECONDS_PER_FILE = 0.0111
IMAGE_READ_SECONDS_PER_FILE_SSD = 0.0018
READ_SCALING_EXPONENT = 0.8

#: Sequential disk bandwidth per node (HDD testbed / SSD workstation).
DISK_BANDWIDTH = 100 * MB
DISK_BANDWIDTH_SSD = 400 * MB

#: Effective per-node network bandwidth for shuffles/broadcasts.
NETWORK_BANDWIDTH = 120 * MB

#: Serialization throughput per core (the paper's JVM serializers; the
#: engine's own compressor-free VCB1 encode measures ~2.5 GB/s).
SERDE_BANDWIDTH_PER_CORE = 200 * MB

#: Serialized-size ratio of feature data per model
#: (AlexNet features are far sparser — Appendix A). Sourced from the
#: roster so the optimizer and the cost model always agree.
def _roster_serialized_ratios():
    from repro.cnn.zoo.roster import MODEL_ROSTER

    return {name: stats.serialized_ratio
            for name, stats in MODEL_ROSTER.items()}


SERIALIZED_RATIO = _roster_serialized_ratios()

# ---------------------------------------------------------------------
# scheduling
# ---------------------------------------------------------------------
#: Per-task scheduling overhead, and the extra cost per task once the
#: partition count crosses Spark's status-message compression threshold
#: (Section 5.3: "when np > 2000, Spark compresses task status
#: messages, leading to high overhead").
TASK_OVERHEAD_S = 0.010
TASK_OVERHEAD_LARGE_NP_S = 0.030
LARGE_NP_THRESHOLD = 2000

#: Fixed per-stage overhead (driver scheduling, stage setup).
STAGE_OVERHEAD_S = 2.0

# ---------------------------------------------------------------------
#: Acceptable predicted/observed band for per-region memory-peak
#: predictions (``repro.explain.peaks``): predictions must bound the
#: observed peak from above without overshooting 2x — mirroring the
#: 1.0-2.0x band DESIGN.md documents for Eq. 16 size estimates. Ratios
#: are predicted / observed.
PEAK_PREDICTION_BAND = (1.0, 2.0)


def cpu_speedup(cpu):
    """Relative node throughput at ``cpu`` threads vs one thread."""
    p = CPU_PARALLEL_FRACTION
    return 1.0 / ((1.0 - p) + p / max(1, cpu))


def node_flops(model_name, cpu):
    """Effective inference FLOP/s of one CPU node."""
    eff = MODEL_COMPUTE_EFFICIENCY.get(model_name, 1.0)
    return NODE_FLOPS_BASE * eff * cpu_speedup(cpu)


# ---------------------------------------------------------------------
# clusters
# ---------------------------------------------------------------------
@dataclass(frozen=True)
class ClusterSpec:
    """Hardware the cost model reasons about."""

    num_nodes: int
    cores_per_node: int
    system_memory_bytes: int
    disk_bandwidth: float = DISK_BANDWIDTH
    image_read_seconds_per_file: float = IMAGE_READ_SECONDS_PER_FILE
    network_bandwidth: float = NETWORK_BANDWIDTH
    gpu_memory_bytes: int = 0
    gpu_flops: float = 0.0

    @property
    def has_gpu(self):
        return self.gpu_memory_bytes > 0


def cloudlab_cluster(num_nodes=8):
    """The paper's CPU testbed: 8 workers, 32 GB, 8 cores, HDD."""
    return ClusterSpec(
        num_nodes=num_nodes,
        cores_per_node=8,
        system_memory_bytes=32 * GB,
    )


def gpu_workstation():
    """The paper's GPU setup: one node, 32 GB RAM, 8 cores, SSD,
    Nvidia Titan X (Pascal) 12 GB."""
    return ClusterSpec(
        num_nodes=1,
        cores_per_node=8,
        system_memory_bytes=32 * GB,
        disk_bandwidth=DISK_BANDWIDTH_SSD,
        image_read_seconds_per_file=IMAGE_READ_SECONDS_PER_FILE_SSD,
        gpu_memory_bytes=12 * GB,
        gpu_flops=GPU_FLOPS,
    )
