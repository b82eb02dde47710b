"""Ablation: what each optimizer rule buys (DESIGN.md Section 5).

Three ablations of Algorithm 1, evaluated through the cost model on
the full Figure 6 grid:

  1. drop the cpu cap + DL constraint (always use cores-1): VGG16
     crashes — reliability comes from the constraint;
  2. drop the persistence downgrade (always deserialized): ResNet50 on
     Amazon/Ignite crashes and Spark spills grow — the serialized rule
     is load-bearing at scale;
  3. drop the broadcast rule (always shuffle): Foods runs get slower —
     the join rule buys efficiency, not reliability.
"""

import pytest

from harness import AMAZON, FOODS, paper_workload, print_table
from repro.core.config import Resources
from repro.core.optimizer import optimize
from repro.core.plans import STAGED
from repro.costmodel import cloudlab_cluster, estimate_plan, vista_setup
from repro.memory.model import GB

CLUSTER = cloudlab_cluster()
RESOURCES = Resources(8, 32 * GB, 8)


def vista_report(model_name, ds, backend="spark", mutate=None):
    workload = paper_workload(model_name, ds)
    config = optimize(workload, RESOURCES)
    setup = vista_setup(config, backend=backend)
    if mutate is not None:
        setup = mutate(setup)
    return estimate_plan(workload, STAGED, setup, CLUSTER)


@pytest.fixture(scope="module")
def grid():
    out = {}
    mutations = {
        "full": None,
        "no-cpu-cap": lambda s: s.with_(cpu=7),
        "no-ser-rule": lambda s: s.with_(persistence="deserialized"),
        "no-broadcast": lambda s: s.with_(join="shuffle"),
    }
    for ds_name, ds in (("foods", FOODS), ("amazon", AMAZON)):
        for backend in ("spark", "ignite"):
            for model in ("alexnet", "vgg16", "resnet50"):
                for ablation, mutate in mutations.items():
                    out[(ds_name, backend, model, ablation)] = vista_report(
                        model, ds, backend, mutate
                    )
    return out


def test_ablation_table(grid, benchmark):
    benchmark(lambda: vista_report("resnet50", FOODS))
    ablations = ["full", "no-cpu-cap", "no-ser-rule", "no-broadcast"]
    rows = []
    for (ds_name, backend, model, ablation), report in sorted(grid.items()):
        if ablation == "full":
            rows.append([
                f"{ds_name}/{backend}/{model}"] + [
                grid[(ds_name, backend, model, a)].cell()
                for a in ablations
            ])
    print_table(
        "Optimizer ablation — Vista minutes (X = crash)",
        ["workload"] + ablations, rows,
    )


def test_full_optimizer_never_crashes(grid):
    for key, report in grid.items():
        if key[3] == "full":
            assert not report.crashed, key


def test_dropping_cpu_constraint_crashes_vgg(grid):
    crashed = [
        key for key, report in grid.items()
        if key[3] == "no-cpu-cap" and report.crashed
    ]
    assert any(key[2] == "vgg16" for key in crashed)


def test_dropping_ser_rule_crashes_resnet_amazon_ignite(grid):
    report = grid[("amazon", "ignite", "resnet50", "no-ser-rule")]
    assert report.crashed


def test_dropping_ser_rule_increases_spark_spills(grid):
    full = grid[("amazon", "spark", "resnet50", "full")]
    ablated = grid[("amazon", "spark", "resnet50", "no-ser-rule")]
    assert ablated.spilled_bytes > full.spilled_bytes


def test_dropping_broadcast_slows_foods(grid):
    """On Foods the optimizer picks broadcast; forcing shuffle must not
    be faster (it shuffles the whole image table)."""
    for model in ("alexnet", "vgg16", "resnet50"):
        full = grid[("foods", "spark", model, "full")]
        ablated = grid[("foods", "spark", model, "no-broadcast")]
        assert ablated.seconds >= full.seconds * 0.999
