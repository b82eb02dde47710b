"""Feature transfer from a DAG-structured network (DenseNet-style)
through the same engine as AlexNet/VGG/ResNet.

A dense block is one composite operator (the paper's footnote 1), so
DenseNet-mini is an ordinary chain whose feature layers sit at the
block outputs — and the plan executor runs it like any roster model.
Lazy recomputes the shared prefix for every feature layer; Staged runs
every operator once and trains the same models.

Run:  python examples/dag_feature_transfer.py
"""

import numpy as np

from repro.cnn.zoo.densenet import MINI_INPUT_SHAPE, build_densenet_mini
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor, default_downstream
from repro.core.plans import LAZY, STAGED
from repro.data import foods_dataset
from repro.dataflow.context import local_context


def downstream(features, labels):
    return {"matrix": features, **default_downstream(features, labels)}


def run_plan(plan, model, dataset):
    config = VistaConfig(
        cpu=2, num_partitions=8, mem_storage_bytes=0, mem_user_bytes=0,
        mem_dl_bytes=0, join="shuffle", persistence="deserialized",
    )
    ctx = local_context(num_nodes=2, cores_per_node=4, cpu=2)
    executor = FeatureTransferExecutor(
        ctx, model, dataset, model.feature_layers, config,
        downstream_fn=downstream,
    )
    return executor.run(plan)


def main():
    model = build_densenet_mini()
    print(f"network: {model}")
    for profile in model.profiles:
        mark = "*" if profile.feature_layer else " "
        print(f"  {mark} {profile.name:11s} {profile.kind:14s} "
              f"-> {profile.output_shape}")

    dataset = foods_dataset(num_records=300, image_shape=MINI_INPUT_SHAPE)
    lazy = run_plan(LAZY, model, dataset)
    staged = run_plan(STAGED, model, dataset)

    print(f"\n{'feature layer':14s} {'dim':>5s} {'train F1':>9s}")
    for layer, result in staged.layer_results.items():
        assert np.array_equal(
            result.downstream["matrix"],
            lazy.layer_results[layer].downstream["matrix"],
        )
        print(f"{layer:14s} {result.feature_dim:>5d} "
              f"{result.downstream['f1_train']:>9.3f}")
    print("Lazy and Staged trained on bit-identical feature matrices")

    lazy_flops = lazy.metrics["inference_flops"]
    staged_flops = staged.metrics["inference_flops"]
    print(f"\ninference GFLOPs: Lazy {lazy_flops / 1e9:.2f}, "
          f"Staged {staged_flops / 1e9:.2f} — Lazy performed "
          f"{lazy_flops / staged_flops:.2f}x the FLOPs of Staged")


if __name__ == "__main__":
    main()
