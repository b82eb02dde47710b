"""Smoke test of the end-to-end benchmark at 64 records.

Tier-1 collects only ``tests/``; run this one with

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_quick_run_reports_every_metric(tmp_path):
    out = tmp_path / "result.json"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick",
         "--out", str(out)],
        check=True, timeout=300,
    )
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = json.loads(out.read_text())["workloads"]
    assert list(workloads) == [w["name"] for w in spec["workloads"]]
    for name, record in workloads.items():
        assert record["failed_ratio"] == 0, (name, record["failures"])
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                value = record[section][metric["name"]]
                assert math.isfinite(value), (name, metric["name"])
