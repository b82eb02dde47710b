"""Run reports: waterlines, Section 4.1 crash attribution, and the
CLI exit codes CI relies on."""

import json
import os

import pytest

from repro.cnn import build_model
from repro.core.config import VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import ALL_PLANS, EAGER, STAGED
from repro.data import foods_dataset
from repro.dataflow.context import ClusterContext
from repro.exceptions import (
    DLExecutionMemoryExceeded,
    DriverMemoryExceeded,
    ExecutionMemoryExceeded,
    StorageMemoryExceeded,
    UserMemoryExceeded,
    WorkloadCrash,
)
from repro.memory.model import GB, MemoryBudget
from repro.metrics import MetricsRegistry, find_series, series_peak
from repro.report import (
    attribute_crash,
    render_crash_report,
    render_report,
    render_waterline,
    render_waterlines,
)


REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _budget(user=1 * GB, core=1 * GB, storage=1 * GB, dl=1 * GB,
            driver=1 * GB, elastic=True):
    return MemoryBudget(
        system_bytes=32 * GB, os_reserved_bytes=0, user_bytes=user,
        core_bytes=core, storage_bytes=storage, dl_bytes=dl,
        driver_bytes=driver, storage_elastic=elastic,
    )


def _executor(budget, metrics, cpu=4, num_partitions=8, join="shuffle",
              num_records=24, model_mem_bytes=None):
    ctx = ClusterContext(budget, num_nodes=2, cores_per_node=4, cpu=cpu)
    model = build_model("alexnet", profile="mini")
    config = VistaConfig(
        cpu=cpu, num_partitions=num_partitions, mem_storage_bytes=0,
        mem_user_bytes=0, mem_dl_bytes=0, join=join,
        persistence="deserialized",
    )
    return FeatureTransferExecutor(
        ctx, model, foods_dataset(num_records=num_records),
        ["fc7", "fc8"], config, model_mem_bytes=model_mem_bytes,
        downstream_fn=lambda f, l: {}, metrics=metrics,
    )


def _crash_and_attribute(budget, exception, plan=STAGED, **kwargs):
    """Run a doomed workload with metrics on, return the attribution."""
    registry = MetricsRegistry()
    executor = _executor(budget, registry, **kwargs)
    with pytest.raises(exception):
        executor.run(plan)
    attribution = attribute_crash(registry)
    assert attribution is not None
    assert attribution["exception"] == exception.__name__
    return attribution, registry


# ----------------------------------------------------------------------
# crash attribution, one test per Section 4.1 scenario
# ----------------------------------------------------------------------
def test_attributes_scenario_1_dl_blowup():
    attribution, _ = _crash_and_attribute(
        _budget(dl=1000), DLExecutionMemoryExceeded,
        cpu=4, model_mem_bytes=500,
    )
    assert attribution["scenario"].startswith("(1)")
    assert attribution["region"] == "dl"
    assert attribution["peak_occupancy_bytes"] > attribution["budget_bytes"]


def test_attributes_scenario_2_user_memory():
    attribution, _ = _crash_and_attribute(
        _budget(user=10_000), UserMemoryExceeded, cpu=4,
    )
    assert attribution["scenario"].startswith("(2)")
    assert attribution["region"] == "user"
    assert attribution["peak_occupancy_bytes"] > attribution["budget_bytes"]


def test_attributes_scenario_3_core_memory():
    attribution, _ = _crash_and_attribute(
        _budget(core=5_000), ExecutionMemoryExceeded,
        cpu=1, num_partitions=1, num_records=48,
    )
    assert attribution["scenario"].startswith("(3)")
    assert attribution["region"] == "core"
    assert attribution["peak_occupancy_bytes"] > attribution["budget_bytes"]


def test_attributes_scenario_4_driver_collect():
    attribution, _ = _crash_and_attribute(
        _budget(driver=10_000), DriverMemoryExceeded, cpu=2,
    )
    assert attribution["scenario"].startswith("(4)")
    assert attribution["region"] == "driver"
    assert attribution["worker"] == "driver"
    assert attribution["peak_occupancy_bytes"] > attribution["budget_bytes"]


def test_attributes_ignite_style_storage_overflow():
    attribution, registry = _crash_and_attribute(
        _budget(storage=10_000, elastic=False), StorageMemoryExceeded,
        plan=EAGER, cpu=2, num_records=48,
    )
    assert "Storage" in attribution["scenario"]
    assert attribution["region"] == "storage"
    report = render_crash_report(registry)
    assert "StorageMemoryExceeded" in report


def test_crash_report_names_scenario_and_occupancy():
    _, registry = _crash_and_attribute(
        _budget(user=10_000), UserMemoryExceeded, cpu=4,
    )
    report = render_crash_report(registry)
    assert "(2) insufficient User Memory" in report
    assert "OVER budget" in report
    assert "mem_used_bytes" in report  # the offending waterline renders


def test_clean_run_attributes_nothing():
    registry = MetricsRegistry()
    _executor(_budget(), registry, cpu=2).run(STAGED)
    assert attribute_crash(registry) is None
    assert render_crash_report(registry) == "no crashes recorded"


# ----------------------------------------------------------------------
# waterline rendering
# ----------------------------------------------------------------------
def test_render_waterline_draws_budget_and_predicted():
    registry = MetricsRegistry()
    gauge = registry.gauge("mem_used_bytes", worker="w0", region="user")
    for value in (100, 400, 900, 300):
        gauge.set(value)
    chart = render_waterline(
        gauge.to_dict(), capacity=1200, predicted=950, ticks=4,
        width=20, height=6,
    )
    assert "#" in chart
    assert "<= budget/crash" in chart
    assert "<- predicted" in chart
    assert "peak=900B" in chart


def test_render_waterlines_skips_flat_series():
    registry = MetricsRegistry()
    registry.gauge("mem_used_bytes", worker="w0", region="user").set(0)
    assert render_waterlines(registry) == "(all occupancy series flat at zero)"


def test_render_report_end_to_end():
    registry = MetricsRegistry()
    _executor(_budget(), registry, cpu=2).run(STAGED)
    report = render_report(registry, width=40)
    # no optimizer ran here, so no predicted-vs-observed section; the
    # CLI test covers that path via ``repro run --metrics``
    assert "counters:" in report
    assert "tasks_total" in report
    assert "mem_used_bytes" in report
    assert "no crashes recorded" in report


# ----------------------------------------------------------------------
# acceptance: observed peaks respect Algorithm 1 budgets on success
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
def test_observed_peaks_within_budget_across_plans(plan_name):
    """On every successful plan of the six-plan matrix, the observed
    STORAGE/USER/DL occupancy peaks stay within their Algorithm 1
    budgets — the waterlines never cross the crash line."""
    registry = MetricsRegistry()
    executor = _executor(_budget(), registry, cpu=2, num_records=24)
    try:
        result = executor.run(ALL_PLANS[plan_name])
    except WorkloadCrash:
        pytest.skip(f"{plan_name} does not fit the mini budget")
    for region in ("user", "dl"):
        budget = result.metrics["region_budget_bytes"][region]
        for series in find_series(registry, "mem_used_bytes",
                                  region=region):
            assert (series_peak(series) or 0) <= budget, (
                f"{plan_name}: {region} peak over budget"
            )
    storage_budget = result.metrics["region_budget_bytes"]["storage"]
    for series in find_series(registry, "storage_cached_bytes"):
        assert (series_peak(series) or 0) <= storage_budget


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_report_requires_an_input(capsys):
    from repro.cli import main

    assert main(["report"]) == 2


@pytest.mark.parametrize("flags", [
    ["--slo", os.path.join(REPO_ROOT, "slo", "default.yaml")],
    ["--metrics-json"],
], ids=["slo", "metrics-json"])
def test_cli_report_missing_file_exits_2_without_traceback(
    flags, tmp_path, capsys
):
    from repro.cli import main

    assert main(["report", *flags, str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("report: cannot read")
    assert len(captured.err.strip().splitlines()) == 1


def test_cli_run_writes_v2_envelope_and_report_renders_it(
    tmp_path, capsys
):
    from repro.cli import main

    export = tmp_path / "run.json"
    assert main([
        "run", "--model", "alexnet", "--layers", "2", "--records", "16",
        "--nodes", "2", "--metrics", "--metrics-json", str(export),
    ]) == 0
    block = json.loads(export.read_text())  # the bare metrics/v1 block
    assert block["schema"] == "metrics/v1"
    assert block["series"]
    capsys.readouterr()
    assert main(["report", "--metrics-json", str(export)]) == 0
    out = capsys.readouterr().out
    assert "predicted vs observed peak" in out
