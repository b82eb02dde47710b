"""Repo hygiene: CI and the docs only name files that exist.

A deleted bench or test must leave with its CI step and its README
command — a workflow step that runs a missing script is red on every
push, and a documented command that cannot run is worse than none.
"""

import ast
import glob
import json
import os
import re

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CI_WORKFLOW = ".github/workflows/ci.yml"

SRC_ROOT = os.path.join("src", "repro")
SRC_PACKAGES = sorted(
    name for name in os.listdir(os.path.join(REPO_ROOT, SRC_ROOT))
    if os.path.isdir(os.path.join(REPO_ROOT, SRC_ROOT, name, ""))
    and not name.startswith("_")
)

#: Paths a command line or a design note can name: bench/test/example
#: scripts and source files by repo-relative path, modules the way the
#: docs write them (``cnn/layers.py``: relative to ``src/repro/``), SLO
#: rulesets, bench envelopes (none is committed, so naming one fails).
PATH_RE = re.compile(
    r"(?<![\w/.-])("
    r"(?:benchmarks|tests|examples|src)/[\w/-]+\.py"
    r"|(?:" + "|".join(SRC_PACKAGES) + r")/[\w/]+\.py"
    r"|slo/[\w-]+\.\w+"
    r"|BENCH_\w+\.json"
    r")"
)
FENCED_BLOCK_RE = re.compile(r"^[ \t]*```.*?^[ \t]*```", re.M | re.S)


def _read(path):
    with open(os.path.join(REPO_ROOT, path)) as handle:
        return handle.read()


@pytest.mark.parametrize("path, code_blocks_only", [
    (CI_WORKFLOW, False),
    (".claude/skills/verify/SKILL.md", True),
    ("README.md", True),
    ("DESIGN.md", False),
])
def test_every_named_path_exists(path, code_blocks_only):
    text = _read(path)
    if code_blocks_only:
        text = "\n".join(FENCED_BLOCK_RE.findall(text))
    named = set(PATH_RE.findall(text))
    assert named, f"{path}: the path pattern matched nothing"
    missing = sorted(
        name for name in named
        if not os.path.exists(os.path.join(
            REPO_ROOT,
            SRC_ROOT if name.split("/")[0] in SRC_PACKAGES else "", name,
        ))
    )
    assert not missing, f"{path} names missing files: {missing}"


def test_ci_workflow_is_valid_yaml():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(_read(CI_WORKFLOW))
    assert workflow["jobs"]
    for name, job in workflow["jobs"].items():
        assert job["steps"], f"job {name} has no steps"


def test_no_committed_bench_envelope():
    """Speed is recorded by ``BENCHMARK.json`` + ``benchmarks/e2e``
    alone; a ``BENCH_*.json`` would be a second perf record."""
    found = [
        os.path.relpath(path, REPO_ROOT)
        for pattern in ("BENCH_*.json",
                        os.path.join("benchmarks", "**", "BENCH_*.json"))
        for path in glob.glob(os.path.join(REPO_ROOT, pattern),
                              recursive=True)
    ]
    assert not found


def test_roadmap_items_are_cited_by_topic_not_by_number():
    """A re-anchor renumbers ROADMAP.md's items, so a number cited from
    anywhere else goes stale without a diff: name the topic ("the
    process backend's verdict"). The three planning files cite their
    own numbering; the benchmark's frozen paths are not ours to edit."""
    cited = re.compile(r"ROADMAP\s+items?\s+\d")
    planning = {"ROADMAP.md", "CHANGES.md", "ISSUE.md"}
    frozen = tuple(json.loads(_read("BENCHMARK.json"))["paths"])
    scratch = {".git", ".hypothesis", ".pytest_cache", ".benchmarks",
               "__pycache__"}
    hits = []
    for folder, folders, names in os.walk(REPO_ROOT):
        folders[:] = [name for name in folders if name not in scratch]
        for name in names:
            path = os.path.relpath(os.path.join(folder, name), REPO_ROOT)
            if (name.endswith((".md", ".py", ".yml", ".yaml", ".toml"))
                    and path not in planning
                    and not path.startswith(frozen)
                    and cited.search(_read(path))):
                hits.append(path)
    assert not hits


def test_envelope_schema_is_gone_from_src():
    """A recorded run is an ``obs/v1`` ledger (plus, optionally, a
    bare ``metrics/v1`` block); nothing under ``src/`` reads or writes
    the old run envelope."""
    hits = [
        path for path in glob.glob(
            os.path.join(REPO_ROOT, "src", "**", "*.py"), recursive=True)
        if "trace/v2" in _read(path)
    ]
    assert not hits


def test_every_committed_rule_metric_resolves_on_a_record(tmp_path):
    """A rule whose path matches nothing is skipped, silently — so a
    typo in ``slo/default.yaml`` would be a gate that never fires."""
    from repro.observe import load_rules, read_ledger, summarize_ledger
    from repro.observe.slo import resolve_path
    from tests.test_history import _write_ledger

    ledger = _write_ledger(str(tmp_path / "run.jsonl"), extra=[
        ("stage_plan", {"plan": "staged/aj", "stages": [
            {"key": "read", "matcher": "read", "predicted_s": 1.0}]}),
        ("metric", {"metric": "mem_used_bytes", "value": 1.0,
                    "labels": {"worker": "w0", "region": "user"}}),
    ])
    record = summarize_ledger(*read_ledger(ledger))
    for rule in load_rules(os.path.join(REPO_ROOT, "slo", "default.yaml")):
        assert resolve_path(record, rule.metric) is not None, (
            f"{rule.name}: {rule.metric!r} matches nothing"
        )


# ---------------------------------------------------------------------
# one owner per engine decision: the shape cannot drift back
# ---------------------------------------------------------------------
def _src_files(*parts):
    return sorted(glob.glob(
        os.path.join(REPO_ROOT, "src", "repro", *parts), recursive=True))


def test_a_backend_takes_one_wave_and_one_stage():
    """``benchmarks/e2e/tracing.py`` wraps each class's own
    ``run_wave``; the scheduler hands it one object."""
    import inspect

    from repro.dataflow.backend import BACKENDS

    for cls in BACKENDS.values():
        run_wave = vars(cls)["run_wave"]  # defined here, not inherited
        assert list(inspect.signature(run_wave).parameters) == [
            "self", "wave"], cls
        assert not inspect.isgeneratorfunction(run_wave), cls
        assert list(inspect.signature(cls.stage).parameters) == [
            "self", "stage"], cls


def test_context_fields_are_read_not_probed():
    """``ClusterContext.__init__`` declares every field the engine
    shares; a ``getattr(context, ..., default)`` is a second owner."""
    probe = re.compile(r"getattr\((self\.|left\.)?context,")
    hits = [
        f"{os.path.relpath(path, REPO_ROOT)}:{number}"
        for path in _src_files("**", "*.py")
        for number, line in enumerate(
            _read(path).splitlines(), 1) if probe.search(line)
    ]
    assert not hits


def test_a_backend_settles_nothing_itself():
    """Attempts, retries, charges and releases belong to the scheduler
    (``dataflow/executor.py``) and the accountant's hold."""
    backend = _read("src/repro/dataflow/backend.py")
    for owned in ("accountant.charge", "accountant.release",
                  "attempts[", "retry_next"):
        assert owned not in backend, owned
    scheduler = ast.parse(_read("src/repro/dataflow/executor.py"))
    private = [
        alias.name for node in ast.walk(scheduler)
        if isinstance(node, ast.ImportFrom)
        and node.module == "repro.dataflow.backend"
        for alias in node.names if alias.name.startswith("_")
    ]
    assert not private


def test_only_the_process_backend_forks():
    """``dataflow/backend.py`` is the one owner of child processes:
    nothing else under ``src/repro`` calls ``os.fork``."""
    forkers = sorted({
        os.path.relpath(path, REPO_ROOT)
        for path in _src_files("**", "*.py")
        for node in ast.walk(ast.parse(_read(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "fork"
        and getattr(node.func.value, "id", None) == "os"
    })
    assert forkers == [os.path.join("src", "repro", "dataflow", "backend.py")]


# ---------------------------------------------------------------------
# one CNN abstraction, one description of a model
# ---------------------------------------------------------------------
def test_one_class_runs_partial_inference():
    """Every network is a chain ``CNN`` — composite blocks fold the
    DAG-shaped ones into it — so one class owns ``f̂_{i→j}``."""
    owners = [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.name}"
        for path in _src_files("cnn", "**", "*.py")
        for node in ast.walk(ast.parse(_read(path)))
        if isinstance(node, ast.ClassDef) and any(
            isinstance(item, ast.FunctionDef)
            and item.name == "partial_forward_batch" for item in node.body
        )
    ]
    assert owners == ["src/repro/cnn/network.py:CNN"]


def test_model_stats_has_one_constructor():
    """Roster and executable statistics come out of the same
    ``ModelStats.__init__``: nothing assembles one field by field."""
    sites = []
    for path in _src_files("**", "*.py"):
        source = _read(path)
        assert "ModelStats.__new__" not in source, path
        sites += [
            os.path.relpath(path, REPO_ROOT)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and "FeatureLayerStats" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None),
            )
        ]
    assert sites == ["src/repro/cnn/zoo/roster.py"]


# ---------------------------------------------------------------------
# one description of a plan's shape
# ---------------------------------------------------------------------
def test_plan_shape_is_read_off_the_step_list():
    """``compile_plan`` writes a plan's shape down; every other reader
    walks its steps. Only it and the degradation ladder (which rewrites
    one plan into another) name a ``Materialization`` or
    ``JoinPlacement`` member, and the CNN cost prices FLOPs, not a
    materialization."""
    owners = {os.path.join("src", "repro", "core", name)
              for name in ("plans.py", "resilient.py")}
    hits = [
        f"{os.path.relpath(path, REPO_ROOT)}:{node.lineno}"
        for path in _src_files("**", "*.py")
        if os.path.relpath(path, REPO_ROOT) not in owners
        for node in ast.walk(ast.parse(_read(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("Materialization", "JoinPlacement")
    ]
    assert not hits
    cnn_cost = ast.parse(_read("src/repro/costmodel/cnn_cost.py"))
    assert not [
        node.name for node in ast.walk(cnn_cost)
        if isinstance(node, ast.FunctionDef)
        and "materialization" in [arg.arg for arg in node.args.args]
    ]


# ---------------------------------------------------------------------
# one wire format, no compressor; the feature store writes atomically
# ---------------------------------------------------------------------
def test_no_compressor_under_dataflow_or_features():
    """Serialized persistence is the VCB1 buffer itself: what shrinks
    is ReLU's zeros, column by column, not deflate over mantissas
    (``zlib.crc32`` fingerprints are fine)."""
    hits = [
        os.path.relpath(path, REPO_ROOT)
        for package in ("dataflow", "features")
        for path in _src_files(package, "**", "*.py")
        if re.search(r"zlib\.(de)?compress", _read(path))
    ]
    assert not hits
    assert "zlib" not in _read("src/repro/dataflow/partition.py")


def test_feature_store_writes_through_atomic_io_only():
    store = _read("src/repro/features/store.py")
    assert "atomic_write_bytes" in store
    for raw_write in ("write_bytes", "write_text"):
        assert raw_write not in store.replace("atomic_write_bytes", "")


# ---------------------------------------------------------------------
# one planner input; Table 1(C) and alpha are constants
# ---------------------------------------------------------------------
def _defs(*parts):
    """``(path:name, parameter names)`` of every function under
    ``src/repro/<parts>``."""
    for path in _src_files(*parts):
        for node in ast.walk(ast.parse(_read(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {arg.arg for arg in (
                    args.posonlyargs + args.args + args.kwonlyargs)}
                yield f"{os.path.relpath(path, REPO_ROOT)}:{node.name}", names


def test_the_statistics_triple_travels_as_one_workload():
    """Every planner reader takes a ``Workload`` record; the one def
    left that takes loose model and dataset statistics is the
    ``estimate_runtime`` adapter, whose shape the benchmark pins."""
    loose = sorted(
        where for where, names in _defs("**", "*.py")
        if {"model_stats", "dataset_stats"} <= names
    )
    assert loose == ["src/repro/costmodel/runtime.py:estimate_runtime"]


def test_no_planner_knob_shadows_a_table_1c_constant():
    """Table 1(C)'s parameters and alpha are ``core/config.py``'s
    ``DEFAULT_*`` constants; no planner or observer function takes one
    as a parameter. (The dataflow layer's ``map_blocks(user_alpha=)``
    is an engine knob with two values in use, and is not checked.)"""
    knobs = {"alpha", "user_alpha", "defaults", "sizing"}
    hits = sorted(
        f"{where}({', '.join(sorted(names & knobs))})"
        for package in ("core", "costmodel", "explain", "observe")
        for where, names in _defs(package, "**", "*.py")
        if names & knobs
    )
    assert not hits
