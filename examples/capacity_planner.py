"""Capacity planner: use the optimizer + cost model to answer
"what cluster do I need?" questions at paper scale, before touching a
cluster.

For a chosen CNN/dataset this prints, per cluster size: the optimizer's
configuration (cpu, np, memory split, join, persistence), the predicted
runtime, and — for the naive Lazy-7 configuration — whether the run
would crash and from which Section 4.1 scenario.

Run:  python examples/capacity_planner.py
"""

from repro.cnn import get_model_stats
from repro.core.config import DatasetStats, Resources, Workload
from repro.core.optimizer import optimize
from repro.core.plans import LAZY, STAGED
from repro.costmodel import (
    cloudlab_cluster,
    estimate_plan,
    spark_default_setup,
    vista_setup,
)
from repro.exceptions import NoFeasiblePlan
from repro.memory.model import GB


def plan_for(model_name, dataset_stats, num_nodes, mem_gb=32):
    stats = get_model_stats(model_name)
    workload = Workload(stats, stats.feature_layers, dataset_stats)
    resources = Resources(num_nodes, mem_gb * GB, 8)
    cluster = cloudlab_cluster(num_nodes)

    naive = estimate_plan(
        workload, LAZY,
        spark_default_setup(7, dataset_stats.num_records), cluster,
    )
    try:
        config = optimize(workload, resources)
    except NoFeasiblePlan as exc:
        return naive, None, None, str(exc)
    vista = estimate_plan(workload, STAGED, vista_setup(config), cluster)
    return naive, config, vista, None


def main():
    # A paper-scale workload: Amazon-sized data through ResNet50.
    amazon = DatasetStats(
        num_records=200_000, num_structured_features=200,
        avg_image_bytes=15 * 1024,
    )
    print("workload: ResNet50 x 5 layers over 200k records\n")
    print(f"{'nodes':>5s}  {'naive Lazy-7':>14s}  {'Vista':>8s}  "
          f"{'optimizer config'}")
    for num_nodes in (1, 2, 4, 8, 16):
        naive, config, vista, error = plan_for(
            "resnet50", amazon, num_nodes
        )
        naive_cell = (
            f"X ({naive.crash})" if naive.crashed
            else f"{naive.minutes:.0f} min"
        )
        if error:
            print(f"{num_nodes:>5d}  {naive_cell:>14s}  {'—':>8s}  "
                  f"infeasible: more memory needed")
            continue
        print(f"{num_nodes:>5d}  {naive_cell:>14s}  "
              f"{vista.minutes:>6.0f}m  {config.describe()}")

    # And the memory-bound case: VGG16 on small nodes.
    print("\nworkload: VGG16 x 3 layers, shrinking node memory")
    foods = DatasetStats(20_000, 130, 14 * 1024)
    for mem_gb in (32, 24, 16, 8):
        naive, config, vista, error = plan_for(
            "vgg16", foods, 8, mem_gb=mem_gb
        )
        if error:
            print(f"  {mem_gb} GB nodes: NO FEASIBLE PLAN — "
                  "Vista tells you to provision more memory")
        else:
            print(f"  {mem_gb} GB nodes: cpu={config.cpu}, "
                  f"predicted {vista.minutes:.0f} min")


if __name__ == "__main__":
    main()
