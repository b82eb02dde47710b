"""Intermediate data size estimation (Eq. 16, Eqs. 5-6, Appendix A).

Vista estimates the size of every intermediate table ``T_i`` produced
by the Staged plan from its knowledge of the CNN's feature-layer
shapes and the PD system's Tungsten-style record format:

    |T_i| = alpha_1 x n x (8 + 8 + 4 x |g_l(f̂_l(I))|) + |Tstr|   (Eq. 16)

where ``alpha_1`` is the JVM-object blowup fudge factor. From the
per-layer sizes it derives the two peak quantities the optimizer's
memory constraints use:

    s_single = max_i |T_i|                                (Eq. 5)
    s_double = max_i (|T_i| + |T_{i+1}|) - |Tstr|          (Eq. 6)

These estimates are deliberately safe *upper bounds* for deserialized
in-memory data (Figure 15 validates this against actual table sizes).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SizingReport:
    """Estimated sizes (bytes) for one workload instance."""

    layers: list
    structured_table_bytes: int
    image_table_bytes: int
    intermediate_table_bytes: dict   # layer name -> |T_i|
    s_single: int
    s_double: int


def table_bytes(model_stats, layers, dataset_stats, alpha=2.0):
    """Eq. 16 for a table holding ``layers``' feature tensors: a record
    is its id plus, per layer, 8 B of header and the unpooled tensor.
    Staged's stage table is the one-layer case, Eager's all-layers table
    the all-layer case."""
    per_record = 8 + sum(
        8 + model_stats.materialized_bytes(layer) for layer in layers
    )
    return int(
        alpha * dataset_stats.num_records * per_record
        + dataset_stats.structured_table_bytes()
    )


def intermediate_table_bytes(model_stats, layer, dataset_stats, alpha=2.0):
    """Eq. 16 for one feature layer (per-record form times n)."""
    return table_bytes(model_stats, [layer], dataset_stats, alpha=alpha)


#: Size of the Eager plan's all-layers-at-once table: one record holds
#: the TensorList of *every* layer in L.
eager_table_bytes = table_bytes


def estimate_sizes(model_stats, layers, dataset_stats, alpha=2.0):
    """Build the full :class:`SizingReport` for a layer set.

    ``layers`` is ordered lowest-to-highest (the staged materialization
    order), so consecutive pairs in Eq. 6 are the tables that coexist
    while stage ``i+1`` is derived from stage ``i``.
    """
    layers = list(layers)
    if not layers:
        raise ValueError("at least one feature layer is required")
    sizes = {
        layer: intermediate_table_bytes(
            model_stats, layer, dataset_stats, alpha=alpha
        )
        for layer in layers
    }
    ordered = [sizes[layer] for layer in layers]
    s_single = max(ordered)
    if len(ordered) > 1:
        s_double = max(
            ordered[i] + ordered[i + 1] for i in range(len(ordered) - 1)
        ) - dataset_stats.structured_table_bytes()
    else:
        s_double = s_single
    return SizingReport(
        layers=layers,
        structured_table_bytes=dataset_stats.structured_table_bytes(),
        image_table_bytes=dataset_stats.image_table_bytes(),
        intermediate_table_bytes=sizes,
        s_single=int(s_single),
        s_double=int(s_double),
    )


def static_storage_need(cached_bytes, persistence, serialized_ratio,
                        alpha=2.0):
    """In-memory bytes of a cached working set on a *static* (memory-
    only, Ignite-style) storage region under a persistence format.

    Serialized data drops the JVM-object blowup (alpha) and compresses
    by the model's ratio. Shared by the optimizer's Ignite feasibility
    constraint and the cost model's storage crash check so the two can
    never disagree.
    """
    if persistence == "serialized":
        return int(cached_bytes / alpha * serialized_ratio)
    return int(cached_bytes)


def columnar_intermediate_bytes(cnn, layer, dataset_stats):
    """*Exact* columnar bytes of the layer's joined train table — the
    measured counterpart of :func:`intermediate_table_bytes`'s Eq. 16
    upper bound.

    Under the columnar partition layout (``repro.dataflow.columnar``)
    the joined table {id, features, label, tensor} stores two int64
    scalar columns plus two float32 tensor columns, so its size is
    fully determined: ``n x (16 + 4 x (n_str + |flat|))``. Tests pin
    the traced measurement to this number bit-exactly; Eq. 16's alpha
    then reads as the estimate-to-exact safety factor.
    """
    per_record = (
        16 + 4 * dataset_stats.num_structured_features
        + cnn.stats.materialized_bytes(layer)
    )
    return dataset_stats.num_records * per_record
