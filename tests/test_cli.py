"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_models_command(capsys):
    assert main(["models"]) == 0
    out = capsys.readouterr().out
    for model in ("alexnet", "vgg16", "resnet50"):
        assert model in out


def test_plan_command(capsys):
    assert main(["plan", "--model", "alexnet", "--dataset", "foods"]) == 0
    out = capsys.readouterr().out
    assert "cpu=7" in out
    assert "s_single" in out


def test_plan_infeasible_exits_nonzero(capsys):
    code = main(["plan", "--model", "vgg16", "--memory-gb", "6"])
    assert code == 1
    assert "NO FEASIBLE PLAN" in capsys.readouterr().out


def test_estimate_vista(capsys):
    assert main([
        "estimate", "--model", "resnet50", "--dataset", "amazon",
        "--approach", "vista",
    ]) == 0
    out = capsys.readouterr().out
    assert "vista:" in out
    assert "inference" in out


def test_estimate_crash_exits_nonzero(capsys):
    code = main([
        "estimate", "--model", "vgg16", "--approach", "lazy-5",
    ])
    assert code == 1
    assert "CRASH" in capsys.readouterr().out


def test_estimate_prices_on_the_gpu_that_gpu_gb_names(capsys):
    """``--gpu-gb`` plans for the GPU (Eq. 15), so the estimate prices
    inference on that GPU too, and a lazy baseline's crash is Fig. 7A's
    GPU scenario rather than the CPU DL blowup."""
    gpu = ["--model", "vgg16", "--gpu-gb", "16"]
    assert main(["estimate", *gpu, "--approach", "vista"]) == 0
    assert capsys.readouterr().out.startswith("vista: 2.3 min\n")
    assert main(["estimate", *gpu, "--approach", "lazy-5"]) == 1
    assert capsys.readouterr().out == "lazy-5: CRASH (gpu-memory)\n"


def test_estimate_eager_ignite(capsys):
    assert main([
        "estimate", "--model", "alexnet", "--approach", "eager",
        "--backend", "ignite",
    ]) == 0


def test_run_command(capsys):
    assert main([
        "run", "--model", "alexnet", "--records", "24", "--nodes", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "fc7" in out and "fc8" in out
    assert "train F1" in out


def test_run_command_with_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    assert main([
        "run", "--model", "alexnet", "--records", "24", "--nodes", "2",
        "--trace", "--trace-json", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "### trace:" in out
    assert "workload" in out
    assert "inference:fc7" in out
    assert "per-operator CNN time:" in out
    assert "~ sizing fc7" in out

    import json

    exported = json.loads(trace_path.read_text())
    names = []

    def walk(node):
        names.append(node["name"])
        for child in node["children"]:
            walk(child)

    walk(exported)
    for expected in ("optimize", "read", "workload", "inference:fc7",
                     "train:fc8"):
        assert any(n == expected or n.startswith(expected)
                   for n in names), f"span {expected} missing from JSON"


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["plan", "--model", "inception"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_layers_flag(capsys):
    assert main([
        "plan", "--model", "resnet50", "--layers", "2",
    ]) == 0
    out = capsys.readouterr().out
    assert "x 2 layers" in out
