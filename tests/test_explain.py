"""Plan EXPLAIN, what-if analysis, and cost-model calibration.

Covers the acceptance contract end to end: the candidate ledger lists
every Algorithm 1 candidate with its Eq. 9-15 terms and rejection
reasons; the winner is the configuration ``Vista.run`` actually
executes; a what-if pinned to the optimizer's choice predicts
per-region peaks inside the documented band of the observed waterlines
for all six plans; and the parallel calibration report carries the
measured capacity its gate hangs on."""

import json
import os
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.cnn import build_model, get_model_stats
from repro.core.api import Vista, default_resources
from repro.core.config import DatasetStats, VistaConfig
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import ALL_PLANS
from repro.costmodel.params import PEAK_PREDICTION_BAND
from repro.data import foods_dataset
from repro.dataflow.context import ClusterContext
from repro.explain import (
    calibration,
    drift_violations,
    explain,
    peak_ratios,
    predict_workload_peaks,
    what_if,
)
from repro.explain.whatif import (
    VERDICT_FEASIBLE,
    VERDICT_OVERCOMMITTED,
    VERDICT_USER_UNDER_REQUIREMENT,
)
from repro.memory.model import GB, MemoryBudget
from repro.metrics import MetricsRegistry
from repro.observe import RunLedger, evaluate_slo, load_rules
from repro.report import render_explain

DEFAULT_RULES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "slo", "default.yaml",
)
FOODS = DatasetStats(20_000, 130, 14 * 1024)
AMAZON = DatasetStats(200_000, 200, 15 * 1024)


def _paper_workload(model="alexnet", num_layers=4):
    stats = get_model_stats(model)
    return stats, stats.top_feature_layers(num_layers)


def _explain(model="alexnet", num_layers=4, dataset=FOODS,
             resources=None, **kwargs):
    stats, layers = _paper_workload(model, num_layers)
    return explain(
        stats, layers, dataset, resources or default_resources(), **kwargs
    )


# ----------------------------------------------------------------------
# the candidate ledger
# ----------------------------------------------------------------------
class TestLedger:
    def test_covers_full_algorithm1_search_range(self):
        result = _explain()
        # linear search descends from min(cores_per_node, cpu_max) - 1
        assert [c.cpu for c in result.candidates] == [7, 6, 5, 4, 3, 2, 1]

    def test_every_candidate_carries_memory_terms(self):
        result = _explain()
        for c in result.candidates:
            regions = c.region_bytes()
            assert set(regions) >= {"user", "core", "dl", "storage"}
            assert c.mem_worker_bytes > 0
            assert c.num_partitions > 0

    def test_rejections_are_structured(self):
        # VGG16 on 8 GB workers: upper cpu candidates cannot fit
        result = _explain(
            "vgg16", 3,
            resources=default_resources(system_gb=8),
        )
        for c in result.rejected():
            assert c.rejection["code"]
            assert c.rejection["detail"]
            assert not c.feasible

    def test_winner_matches_vista_run_config(self):
        """The ledger's CHOSEN row is the configuration ``run``
        executes — cross-checked against the ``optimizer_decision``
        the run itself records in its ledger."""
        vista = Vista(
            model_name="alexnet", num_layers=2,
            dataset=foods_dataset(num_records=24),
            resources=default_resources(num_nodes=2),
            downstream_fn=lambda f, l: {},
        )
        ledger = RunLedger()
        vista.run(ledger=ledger)
        chosen = vista.explain().chosen
        config = vista._config
        assert (chosen.cpu, chosen.num_partitions) == (
            config.cpu, config.num_partitions
        )
        assert (chosen.join, chosen.persistence) == (
            config.join, config.persistence
        )
        (decision,) = ledger.of("optimizer_decision")
        assert (decision["cpu"], decision["num_partitions"]) == (
            chosen.cpu, chosen.num_partitions
        )
        assert (decision["join"], decision["persistence"]) == (
            chosen.join, chosen.persistence
        )

    def test_infeasible_workload_has_no_winner(self):
        result = _explain(
            "vgg16", 3, dataset=AMAZON,
            resources=default_resources(system_gb=6),
        )
        assert not result.feasible
        assert result.chosen is None
        assert all(c.rejection for c in result.candidates)
        assert "NO FEASIBLE PLAN" in render_explain(result)

    def test_render_lists_every_candidate(self):
        result = _explain()
        text = render_explain(result)
        for c in result.candidates:
            assert f"\n{c.cpu}  " in "\n" + text or f"cpu={c.cpu}" in text
        assert "CHOSEN" in text
        assert "s_single" in text


# ----------------------------------------------------------------------
# what-if
# ----------------------------------------------------------------------
class TestWhatIf:
    def _what_if(self, pins, model="alexnet", num_layers=4, dataset=FOODS,
                 resources=None):
        stats, layers = _paper_workload(model, num_layers)
        return what_if(
            stats, layers, dataset, resources or default_resources(), pins
        )

    def test_pinning_the_optimizer_choice_is_feasible(self):
        result = _explain()
        chosen = result.chosen
        report = self._what_if({
            "cpu": chosen.cpu,
            "join": chosen.join,
            "persistence": chosen.persistence,
        })
        assert report.feasible
        assert report.verdict == VERDICT_FEASIBLE
        assert report.config.cpu == chosen.cpu
        assert report.runtime.seconds > 0
        assert set(report.predicted_peak_bytes) == {
            "user", "core", "dl", "storage", "driver"
        }

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="unknown what-if pin"):
            self._what_if({"cpus": 4})

    def test_user_fraction_under_requirement(self):
        report = self._what_if({"user_fraction": 0.001})
        assert not report.feasible
        assert report.verdict == VERDICT_USER_UNDER_REQUIREMENT

    def test_fractions_overcommitted(self):
        report = self._what_if(
            {"user_fraction": 0.8, "storage_fraction": 0.8}
        )
        assert not report.feasible
        assert report.verdict == VERDICT_OVERCOMMITTED

    def test_pinned_plan_prices_that_plan(self):
        lazy = self._what_if({"plan": "lazy"})
        staged = self._what_if({"plan": "staged"})
        assert lazy.plan == "lazy/bj"
        assert staged.plan == "staged/aj"
        # Lazy re-runs every prefix: never cheaper on inference
        assert lazy.runtime.breakdown["inference"] >= \
            staged.runtime.breakdown["inference"]

    def test_explain_attaches_what_if(self):
        result = _explain(what_if_pins={"cpu": 4})
        assert result.what_if is not None
        assert result.what_if.pins == {"cpu": 4}
        assert "what-if:" in render_explain(result)


# ----------------------------------------------------------------------
# mini-scale peak prediction and calibration
# ----------------------------------------------------------------------
def _mini_workload(records=24):
    cnn = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=records)
    config = VistaConfig(
        cpu=2, num_partitions=8, mem_storage_bytes=0, mem_user_bytes=0,
        mem_dl_bytes=0, join="shuffle", persistence="deserialized",
    )
    budget = MemoryBudget(
        system_bytes=32 * GB, os_reserved_bytes=0, user_bytes=1 * GB,
        core_bytes=1 * GB, storage_bytes=1 * GB, dl_bytes=1 * GB,
        driver_bytes=1 * GB, storage_elastic=True,
    )
    return cnn, dataset, config, budget


class TestPeakPrediction:
    @pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
    def test_predicted_peaks_within_band(self, plan_name):
        """Engine-exact peak prediction: for every plan the predicted
        per-region peak sits inside PEAK_PREDICTION_BAND of the
        observed waterline peak."""
        cnn, dataset, config, budget = _mini_workload()
        registry = MetricsRegistry()
        context = ClusterContext(
            budget, num_nodes=2, cores_per_node=4, cpu=config.cpu
        )
        executor = FeatureTransferExecutor(
            context, cnn, dataset, ["fc7", "fc8"], config,
            downstream_fn=lambda f, l: {}, metrics=registry,
        )
        result = executor.run(ALL_PLANS[plan_name])
        predicted = predict_workload_peaks(
            cnn, dataset, ["fc7", "fc8"], config, ALL_PLANS[plan_name], 2
        )
        ratios = peak_ratios(
            predicted, result.metrics["region_peak_bytes"]
        )
        low, high = PEAK_PREDICTION_BAND
        checked = 0
        for region, ratio in ratios.items():
            if ratio is None:
                continue
            assert low <= ratio <= high, (plan_name, region, ratio)
            checked += 1
        assert checked >= 3, f"{plan_name}: too few regions observed"


class TestCalibration:
    def test_drift_violations_flag_large_moves(self):
        old = {"memory_ratio_capacity:staged:user": 1.0,
               "runtime_ratio_capacity:staged:train": 100.0}
        drifted = {"memory_ratio_capacity:staged:user": 1.5,
                   "runtime_ratio_capacity:staged:train": 150.0}
        violations = drift_violations(old, drifted)
        assert "memory_ratio_capacity:staged:user" in violations
        # runtime moved only 1.5x: inside the loose runtime gate
        assert "runtime_ratio_capacity:staged:train" not in violations

    @pytest.mark.parametrize("capacity", [1.0, 4.0])
    def test_parallel_report_carries_the_measured_capacity(
            self, monkeypatch, capacity):
        """``cores_available`` is what the scheduler grants; whether a
        scaling claim may be asserted hangs on what the probe measured
        those cores to deliver."""
        monkeypatch.setattr(
            calibration, "measure_parallel_capacity", lambda cores: capacity
        )
        cnn, dataset, config, budget = _mini_workload()
        report = calibration.calibrate_parallel(
            cnn, dataset, ["fc7"], config, budget, cpus=(1,)
        )
        assert report.parallel_capacity == capacity
        assert report.to_dict()["parallel_capacity"] == capacity
        assert report.results()["parallel_capacity"] == capacity
        assert report.results()["cores_available"] == report.cores_available
        four_cores = replace(report, cores_available=4)
        assert four_cores.delivers(4) is (capacity == 4.0)
        # capacity alone is not enough either: the cores must be granted
        assert not replace(report, cores_available=2).delivers(4)

    def test_capacity_probe_measures_and_leaves_no_child(self, monkeypatch):
        assert calibration.measure_parallel_capacity(1) == 1.0
        monkeypatch.setattr(calibration, "_SPIN_ITERATIONS", 50_000)
        assert calibration.measure_parallel_capacity(2) > 0.0
        # a child that dies mid-kernel is reported and still reaped
        # (the no_leaks fixture checks for survivors and stray fds)
        monkeypatch.setattr(calibration, "_spin", lambda: 1 / 0)
        with pytest.raises(RuntimeError, match="exited before reporting"):
            calibration.measure_parallel_capacity(2)

    def test_op_seconds_histogram_recorded(self):
        cnn, dataset, config, budget = _mini_workload()
        registry = MetricsRegistry()
        context = ClusterContext(
            budget, num_nodes=2, cores_per_node=4, cpu=config.cpu
        )
        FeatureTransferExecutor(
            context, cnn, dataset, ["fc7", "fc8"], config,
            downstream_fn=lambda f, l: {}, metrics=registry,
        ).run(ALL_PLANS["staged"])
        export = registry.export()
        ops = [
            series for series in export["series"]
            if series["name"] == "op_seconds"
        ]
        assert ops, "no op_seconds histograms recorded"
        for series in ops:
            assert series["labels"]["op_type"]
            assert series["count"] > 0
            assert series["sum"] >= 0


class TestPlanChoiceGate:
    """``slo/default.yaml::exact-plan-choice`` — the optimizer's
    recorded choice must equal the baseline run's, knob by knob."""

    def _optimize_record(self, model):
        """The ``knobs`` block a run of this workload would record
        (``Vista.run``'s ``optimizer_decision`` payload)."""
        stats, layers = _paper_workload(
            model, {"alexnet": 4, "vgg16": 3}[model]
        )
        from repro.core.optimizer import optimize

        config = optimize(stats, layers, FOODS, default_resources())
        return {"knobs": {
            "cpu": config.cpu, "join": config.join,
            "persistence": config.persistence,
            "num_partitions": config.num_partitions,
        }}

    def _verdict(self, target, baseline):
        (rule,) = [r for r in load_rules(DEFAULT_RULES)
                   if r.name == "exact-plan-choice"]
        (verdict,) = evaluate_slo([rule], target, baseline=baseline)
        return verdict

    def test_identical_choices_do_not_gate(self):
        record = self._optimize_record("alexnet")
        verdict = self._verdict(record, record)
        assert verdict.status == "pass"
        assert "over 4 shared element(s)" in verdict.note

    def test_flipped_choice_is_a_regression(self):
        verdict = self._verdict(
            self._optimize_record("vgg16"),
            self._optimize_record("alexnet"),
        )
        assert verdict.status == "breach", "plan-choice flip not flagged"
        assert verdict.details  # names the knob(s) that flipped


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_explain_feasible_exits_zero(self, capsys):
        assert cli_main(["explain", "--model", "alexnet"]) == 0
        out = capsys.readouterr().out
        assert "candidate ledger" in out
        assert "CHOSEN" in out
        assert "worker memory split" in out

    def test_explain_infeasible_exits_nonzero(self, capsys):
        code = cli_main([
            "explain", "--model", "vgg16", "--dataset", "amazon",
            "--memory-gb", "6",
        ])
        assert code == 1
        assert "NO FEASIBLE PLAN" in capsys.readouterr().out

    def test_explain_with_pins(self, capsys):
        assert cli_main([
            "explain", "--model", "resnet50", "--pin-cpu", "4",
            "--pin-plan", "staged", "--pin-join", "shuffle",
        ]) == 0
        out = capsys.readouterr().out
        assert "what-if:" in out
        assert "cpu=4" in out
        assert "predicted runtime" in out

    def test_explain_json_envelope(self, capsys, tmp_path):
        path = tmp_path / "explain.json"
        assert cli_main([
            "explain", "--model", "alexnet", "--json", str(path),
        ]) == 0
        exported = json.loads(path.read_text())  # ExplainResult.to_dict
        assert exported["model"] == "alexnet" and exported["feasible"]
        chosen = exported["chosen"]
        assert chosen["feasible"] and chosen["chosen"]
        assert chosen["cpu"] == exported["candidates"][0]["cpu"]
