"""Optimizer inputs, outputs, and fixed system parameters (Table 1).

``Resources`` and ``DatasetStats`` carry the user-supplied inputs of
Table 1(A); ``SystemDefaults`` the fixed-but-adjustable parameters of
Table 1(C); ``VistaConfig`` the variables the optimizer sets, Table
1(B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.model import GB, MB

#: Table 1(C) defaults.
DEFAULT_OS_RESERVED = 3 * GB          # mem_os_rsv
DEFAULT_CORE_MEMORY = int(2.4 * GB)   # mem_core (Spark best practice)
DEFAULT_MAX_PARTITION = 100 * MB      # p_max
DEFAULT_MAX_BROADCAST = 100 * MB      # b_max
DEFAULT_CPU_MAX = 8                   # cpu_max
DEFAULT_ALPHA = 2.0                   # fudge factor for JVM object blowup


@dataclass(frozen=True)
class SystemDefaults:
    """Fixed (but adjustable) system parameters — Table 1(C)."""

    os_reserved_bytes: int = DEFAULT_OS_RESERVED
    core_memory_bytes: int = DEFAULT_CORE_MEMORY
    max_partition_bytes: int = DEFAULT_MAX_PARTITION
    max_broadcast_bytes: int = DEFAULT_MAX_BROADCAST
    cpu_max: int = DEFAULT_CPU_MAX
    alpha: float = DEFAULT_ALPHA


@dataclass(frozen=True)
class Resources:
    """The system environment — Table 1(A)'s resource rows.

    ``gpu_memory_bytes`` of 0 means CPU-only execution.
    """

    num_nodes: int
    system_memory_bytes: int
    cores_per_node: int
    gpu_memory_bytes: int = 0

    @property
    def has_gpu(self):
        return self.gpu_memory_bytes > 0


@dataclass(frozen=True)
class DatasetStats:
    """Statistics about the data tables the user supplies to Vista."""

    num_records: int
    num_structured_features: int
    avg_image_bytes: int

    @classmethod
    def from_dataset(cls, dataset):
        """Measured off a :class:`~repro.data.synthetic
        .MultimodalDataset`."""
        return cls(
            num_records=len(dataset),
            num_structured_features=dataset.num_structured_features,
            avg_image_bytes=dataset.image_bytes(),
        )

    def structured_table_bytes(self):
        """Tungsten-style |Tstr|: bitmap + id + features(header+payload)
        + label per record."""
        per_record = 8 + 8 + (8 + 4 * self.num_structured_features) + 8
        return self.num_records * per_record

    def image_table_bytes(self):
        """|Timg|: bitmap + id + image(header + raw payload)."""
        per_record = 8 + 8 + (8 + self.avg_image_bytes)
        return self.num_records * per_record


@dataclass(frozen=True)
class DownstreamSpec:
    """The downstream ML routine's memory character.

    ``mem_bytes`` is |M|_mem; None means "derive it from the feature
    dimensions" via :func:`repro.core.optimizer.downstream_mem_bytes`.
    ``in_dl_system`` selects between the optimizer's Eq. 10/11 cases
    (a) M in PD User Memory (e.g. MLlib) and (b) M in DL Execution
    Memory (e.g. a TF model). ``gpu_mem_bytes`` is |M|_mem_gpu for the
    Eq. 15 constraint.
    """

    mem_bytes: int | None = None
    gpu_mem_bytes: int = 0
    in_dl_system: bool = False


@dataclass(frozen=True)
class VistaConfig:
    """The optimizer's decisions — Table 1(B)."""

    cpu: int
    num_partitions: int
    mem_storage_bytes: int
    mem_user_bytes: int
    mem_dl_bytes: int
    join: str          # "shuffle" | "broadcast"
    persistence: str   # "serialized" | "deserialized"

    def describe(self):
        return (
            f"cpu={self.cpu} np={self.num_partitions} "
            f"storage={self.mem_storage_bytes / GB:.2f}GB "
            f"user={self.mem_user_bytes / GB:.2f}GB "
            f"dl={self.mem_dl_bytes / GB:.2f}GB "
            f"join={self.join} pers={self.persistence}"
        )
