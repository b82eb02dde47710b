"""Plan EXPLAIN, what-if analysis, and memory-peak prediction.

Covers the acceptance contract end to end: the candidate ledger lists
every Algorithm 1 candidate with its Eq. 9-15 terms and rejection
reasons; the winner is the configuration ``Vista.run`` actually
executes; and a what-if pinned to the optimizer's choice predicts
per-region peaks inside the documented band of the observed waterlines
for all six plans."""

import json
import os
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.cnn import build_model, get_model_stats
from repro.core.api import Vista, default_resources
from repro.core.config import DatasetStats, Resources, VistaConfig, Workload
from repro.core.executor import FeatureTransferExecutor
from repro.core.plans import ALL_PLANS
from repro.costmodel.params import PEAK_PREDICTION_BAND
from repro.data import foods_dataset
from repro.dataflow.context import ClusterContext
from repro.dataflow.partition import DESERIALIZED, SERIALIZED
from repro.explain import (
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
from repro.report import predicted_vs_observed, render_explain

DEFAULT_RULES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "slo", "default.yaml",
)
FOODS = DatasetStats(20_000, 130, 14 * 1024)
AMAZON = DatasetStats(200_000, 200, 15 * 1024)


def _paper_workload(model="alexnet", num_layers=4, dataset=FOODS):
    stats = get_model_stats(model)
    return Workload(stats, stats.top_feature_layers(num_layers), dataset)


def _explain(model="alexnet", num_layers=4, dataset=FOODS,
             resources=None, **kwargs):
    return explain(
        _paper_workload(model, num_layers, dataset),
        resources or default_resources(), **kwargs
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
        the run itself records in its ledger — and every one of them is
        Algorithm 1 over the executable model's ``cnn.stats``. At 24
        records the roster's paper-scale statistics plan the same
        config; for four layers over 2,048 Foods records on the
        end-to-end benchmark's worker they plan ``np`` 8 where the model
        that runs plans 2."""
        from repro.core.config import Resources
        from repro.core.optimizer import (
            config_from_candidate,
            evaluate_candidate,
            optimize,
        )
        from repro.core.resilient import ResilientRunner

        cases = [
            (2, 24, default_resources(num_nodes=2), None),
            (4, 2048, Resources(num_nodes=1, system_memory_bytes=32 * GB,
                                cores_per_node=3), (2, 8)),
        ]
        for num_layers, records, resources, disagreement in cases:
            vista = Vista(
                model_name="alexnet", num_layers=num_layers,
                dataset=foods_dataset(num_records=records),
                resources=resources, downstream_fn=lambda f, l: {},
            )
            executable = Workload(
                vista.cnn.stats, vista.layers, vista.dataset_stats)
            expected = optimize(executable, resources)
            roster = optimize(
                Workload(get_model_stats("alexnet"), vista.layers,
                         vista.dataset_stats),
                resources,
            )
            if disagreement is not None:
                assert (expected.num_partitions,
                        roster.num_partitions) == disagreement
            ledger = RunLedger()
            vista.run(ledger=ledger)
            chosen = vista.explain().chosen
            assert config_from_candidate(chosen) == expected
            assert vista._config == expected
            (decision,) = ledger.of("optimizer_decision")
            assert (decision["cpu"], decision["num_partitions"],
                    decision["join"], decision["persistence"]) == (
                expected.cpu, expected.num_partitions, expected.join,
                expected.persistence,
            )
            lowered = ResilientRunner(vista)._optimize_below(expected.cpu)
            assert lowered == config_from_candidate(evaluate_candidate(
                executable, resources, lowered.cpu))

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
        return what_if(
            _paper_workload(model, num_layers, dataset),
            resources or default_resources(), pins,
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

    def test_what_if_and_the_run_report_print_one_prediction(self):
        """``Vista.explain``'s what-if peaks for a plan are the
        ``predicted_peak_bytes`` gauges a metrics-enabled run of that
        plan sets: one walk, one scale, one answer."""
        vista = Vista("alexnet", 4, foods_dataset(256), Resources(
            num_nodes=1, system_memory_bytes=32 * GB, cores_per_node=3,
        ), downstream_fn=lambda features, labels: {})
        result = vista.explain(what_if={"plan": "eager"})
        report = result.what_if
        registry = MetricsRegistry()
        vista.run(plan=ALL_PLANS["eager"], metrics=registry)
        gauges = {region: predicted for region, predicted, _, _
                  in predicted_vs_observed(registry)}
        assert report.predicted_peak_bytes == gauges
        assert report.predicted_peak_bytes == predict_workload_peaks(
            vista.workload, report.config, ALL_PLANS["eager"], 1
        )
        lines = render_explain(result).splitlines()
        assert "  predicted per-region peaks (per worker):" in lines
        assert not [line for line in lines if "scale" in line]


# ----------------------------------------------------------------------
# mini-scale peak prediction and per-op metrics
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


#: The roster minis, each with the layers Vista explores of it.
ROSTER_MINIS = (("alexnet", 4), ("vgg16", 3), ("resnet50", 3))


class TestPeakPrediction:
    def _check_band(self, plan_name, premat_layer=None, join="shuffle",
                    persistence=DESERIALIZED):
        """Engine-exact peak prediction: the predicted per-region peak
        sits inside PEAK_PREDICTION_BAND of the observed waterline
        peak, for every region the run touched."""
        cnn, dataset, config, budget = _mini_workload()
        config = replace(config, join=join, persistence=persistence)
        registry = MetricsRegistry()
        context = ClusterContext(
            budget, num_nodes=2, cores_per_node=4, cpu=config.cpu
        )
        executor = FeatureTransferExecutor(
            context, cnn, dataset, ["fc7", "fc8"], config,
            downstream_fn=lambda f, l: {}, metrics=registry,
        )
        result = executor.run(ALL_PLANS[plan_name], premat_layer)
        predicted = predict_workload_peaks(
            Workload(cnn.stats, ["fc7", "fc8"],
                     DatasetStats.from_dataset(dataset), premat_layer),
            config, ALL_PLANS[plan_name], 2,
        )
        ratios = peak_ratios(
            predicted, result.metrics["region_peak_bytes"]
        )
        low, high = PEAK_PREDICTION_BAND
        checked = 0
        for region, ratio in ratios.items():
            if ratio is None:
                continue
            # A serialized blob loses the zeros of its sparse columns,
            # which shapes do not tell: that prediction is only over.
            top = high if persistence == DESERIALIZED or region != "storage" \
                else float("inf")
            assert low <= ratio <= top, (plan_name, region, ratio)
            checked += 1
        assert checked >= 3, f"{plan_name}: too few regions observed"

    @pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
    def test_predicted_peaks_within_band(self, plan_name):
        self._check_band(plan_name)

    @pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
    def test_serialized_peaks_within_band(self, plan_name):
        """A serialized partition is priced at its rows' bytes plus a
        header allowance: exact or over, every other region in band."""
        self._check_band(plan_name, persistence=SERIALIZED)

    @pytest.mark.parametrize("join", ["broadcast", "shuffle"])
    @pytest.mark.parametrize("plan_name", sorted(ALL_PLANS))
    def test_premat_peaks_within_band(self, plan_name, join):
        """A pre-materialized source is the base layer's table, made
        from the images inside the run: a join before inference
        operates on its rows, not on the images'."""
        self._check_band(plan_name, premat_layer="conv5", join=join)

    @pytest.mark.parametrize("model, num_layers, plan_name, premat", [
        *((model, num_layers, plan_name, None)
          for model, num_layers in ROSTER_MINIS
          for plan_name in sorted(ALL_PLANS)),
        *(("alexnet", 3, plan_name, "conv5")
          for plan_name in ("eager-reordered", "lazy-reordered", "staged")),
    ])
    def test_the_run_report_scores_the_walk_within_band(
            self, model, num_layers, plan_name, premat):
        """A metrics-enabled ``Vista.run``: the run report's predicted
        peak of every region the run touched sits inside
        PEAK_PREDICTION_BAND of its observed waterline peak."""
        vista = Vista(model, num_layers, foods_dataset(256), Resources(
            num_nodes=1, system_memory_bytes=32 * GB, cores_per_node=3,
        ), downstream_fn=lambda features, labels: {})
        registry = MetricsRegistry()
        vista.run(plan=ALL_PLANS[plan_name], premat_layer=premat,
                  metrics=registry)
        rows = predicted_vs_observed(registry)
        assert {region for region, _, _, _ in rows} == {
            "user", "core", "dl", "storage", "driver"}
        low, high = PEAK_PREDICTION_BAND
        for region, predicted, observed, _ in rows:
            if observed:
                assert low <= predicted / observed <= high, (
                    region, predicted, observed)


class TestPlanChoiceGate:
    """``slo/default.yaml::exact-plan-choice`` — the optimizer's
    recorded choice must equal the baseline run's, knob by knob."""

    def _optimize_record(self, model):
        """The ``knobs`` block a run of this workload would record
        (``Vista.run``'s ``optimizer_decision`` payload)."""
        workload = _paper_workload(
            model, {"alexnet": 4, "vgg16": 3}[model]
        )
        from repro.core.optimizer import optimize

        config = optimize(workload, default_resources())
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
