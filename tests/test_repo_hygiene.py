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


def test_no_checkpoint_manifest_in_src():
    """The wave files are the store: their footers are the only index,
    so nothing under ``src/`` writes or names a ``manifest.json``."""
    hits = [
        path for path in glob.glob(
            os.path.join(REPO_ROOT, "src", "**", "*.py"), recursive=True)
        if "manifest.json" in _read(path)
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


def test_a_run_builds_its_cnn_once():
    """``Vista.__init__`` builds the executable CNN that its planner
    prices and every run executes; nothing else under ``src/repro``
    calls ``build_model``, so no run path builds a second copy."""
    sites = []
    for path in _src_files("**", "*.py"):
        tree = ast.parse(_read(path))
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            sites += [
                f"{os.path.relpath(path, REPO_ROOT)}:{function.name}"
                for node in ast.walk(function)
                if isinstance(node, ast.Call) and "build_model" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None),
                )
            ]
    assert sites == ["src/repro/core/api.py:__init__"]


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


def test_one_module_owns_the_durable_store_format():
    """``recovery/store.py`` owns the durable store over the wave-file
    layout: footers, digests and atomic writes. The feature store is a
    keying over it and encodes, hashes and writes nothing itself."""
    store = _read("src/repro/features/store.py")
    imported = set()
    for node in ast.walk(ast.parse(store)):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {node.module} | {
                f"{node.module}.{alias.name}" for alias in node.names}
    assert not imported & {"json", "hashlib", "repro.atomic_io"}
    for raw_write in ("write_bytes", "write_text"):
        assert raw_write not in store


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
    ``DEFAULT_*`` constants; no planner, engine or observer function
    takes one as a parameter."""
    knobs = {"alpha", "user_alpha", "defaults", "sizing"}
    hits = sorted(
        f"{where}({', '.join(sorted(names & knobs))})"
        for package in ("core", "costmodel", "dataflow", "explain",
                        "observe")
        for where, names in _defs(package, "**", "*.py")
        if names & knobs
    )
    assert not hits


def _callers(test):
    """``path:function`` of every function under ``src/repro`` holding
    a call node for which ``test(call)`` holds."""
    for path in _src_files("**", "*.py"):
        for node in ast.walk(ast.parse(_read(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(isinstance(call, ast.Call) and test(call)
                            for call in ast.walk(node)):
                yield f"{os.path.relpath(path, REPO_ROOT)}:{node.name}"


def _calls(name):
    return lambda call: (getattr(call.func, "id", None)
                         or getattr(call.func, "attr", None)) == name


def test_one_walk_reads_a_compiled_plan():
    """The executor runs the step list and ``walk_plan`` is its one
    reader: the cost, the crash check and every predicted region peak
    (what-if, explain, the run report's gauges) come from that walk.
    ``static_storage_need`` serves the optimizer's Ignite constraint
    and the cost model's crash check only."""
    assert sorted(set(_callers(_calls("compile_plan")))) == [
        "src/repro/core/executor.py:run",
        "src/repro/costmodel/runtime.py:walk_plan",
    ]
    assert sorted(set(_callers(lambda call: _calls("gauge")(call)
                               and call.args
                               and getattr(call.args[0], "value", None)
                               == "predicted_peak_bytes"))) == [
        "src/repro/core/executor.py:_predict_peaks",
    ]
    assert sorted(set(_callers(_calls("static_storage_need")))) == [
        "src/repro/core/optimizer.py:evaluate_candidate",
        "src/repro/costmodel/crashes.py:detect_crash",
    ]


# ---------------------------------------------------------------------
# one metric record: samples are events, series are their grouping
# ---------------------------------------------------------------------
def test_metrics_registry_keeps_events_and_running_state_only():
    """``metrics/registry.py`` defines counters and gauges only, and an
    instrument holds its running state, never a sample store of its
    own: every sample is a ``metric`` event on the registry."""
    tree = ast.parse(_read("src/repro/metrics/registry.py"))
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    kinds = {
        stmt.value.value
        for node in classes.values() for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        == ["kind"]
    }
    assert kinds == {"instrument", "counter", "gauge"}
    assert not [name for name in classes if "histogram" in name.lower()]
    state = {
        target.attr
        for name in ("_Instrument", "Counter", "Gauge")
        for node in ast.walk(classes[name])
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target",
                                                        None)])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name) and target.value.id == "self"
    }
    # ``_event`` is the series' event template, copied per sample
    assert state == {"registry", "name", "labels", "count", "_event",
                     "total", "value", "peak", "low"}


@pytest.mark.parametrize("path, reader", [
    ("src/repro/observe/history.py", "series_from_events"),
    ("src/repro/report/run_report.py", "find_series"),
])
def test_metric_samples_are_read_through_the_one_grouping(path, reader):
    """The run summary and the run report never pick ``metric`` events
    or their values out of a stream themselves."""
    text = _read(path)
    assert reader in text
    assert not re.search(r"""[!=]=\s*["']metric["']""", text)
    assert not re.search(r"""["']value["']""", text)


# ---------------------------------------------------------------------
# the CNN kernels
# ---------------------------------------------------------------------
def test_lrn_has_one_exponent():
    """LRN's ``d ** 0.75`` is two square roots and a product, exact for
    AlexNet's 0.75 only, so the exponent is the class constant
    ``BETA``: no constructor argument can ask for another."""
    import inspect

    from repro.cnn.layers import LocalResponseNorm

    params = inspect.signature(LocalResponseNorm.__init__).parameters
    assert "beta" not in params
    assert LocalResponseNorm.BETA == 0.75


def test_the_conv_gather_builds_no_strided_window_view():
    """The im2col gather copies whole kernel rows out of an
    ``np.ndarray`` of ``void`` runs; nothing under ``cnn/`` builds a
    window view with ``as_strided``."""
    hits = [
        os.path.relpath(path, REPO_ROOT)
        for path in _src_files("cnn", "**", "*.py")
        if "as_strided" in _read(path)
    ]
    assert not hits


# ---------------------------------------------------------------------
# the engine runs the batched kernels only
# ---------------------------------------------------------------------
def test_the_executor_calls_no_per_tensor_kernel():
    """Every column, ragged and TensorList ones included, runs through
    ``partial_forward_batch`` and ``pool_feature_tensor_batch``; the
    per-tensor kernels stay as the public single-image API and the
    oracles the tests compare against, and nothing counts a fallback."""
    executor = _read("src/repro/core/executor.py")
    for kernel in ("partial_forward(", "pool_feature_tensor("):
        assert kernel not in executor, kernel
    hits = [
        os.path.relpath(path, REPO_ROOT)
        for path in _src_files("**", "*.py")
        if "batched_fallback" in _read(path)
    ]
    assert not hits


# ---------------------------------------------------------------------
# one partition store: a cached partition lives only in its region
# ---------------------------------------------------------------------
def test_a_cached_partition_is_read_only_through_storage_get():
    """Nothing in ``dataflow/`` or ``core/`` reads a cached partition
    except through ``StorageManager.get``. Statically, no module there
    but ``dataflow/storage.py`` touches a region's entries. On a
    spilling engine run (Eager, serialized, one worker whose Storage
    holds one partition), once ``cache()`` returns the table holds
    ``StoredPartition`` keys only and every evicted partition is gone
    from the heap, so what reads the table afterwards reads through the
    region — whose hit and spill-read counters end above zero."""
    import gc
    import weakref

    from repro.cnn import build_model
    from repro.core.config import VistaConfig
    from repro.core.executor import FeatureTransferExecutor
    from repro.core.plans import ALL_PLANS
    from repro.data import foods_dataset
    from repro.dataflow.context import local_context
    from repro.dataflow.partition import StoredPartition
    from repro.dataflow.table import DistributedTable
    from tests.test_plan_equivalence_prop import admissions

    hits = [
        os.path.relpath(path, REPO_ROOT)
        for package in ("dataflow", "core")
        for path in _src_files(package, "*.py")
        if not path.endswith(os.path.join("dataflow", "storage.py"))
        and re.search(r"\._(cached|spilled)\b", _read(path))
    ]
    assert not hits

    model = build_model("alexnet", profile="mini")
    dataset = foods_dataset(num_records=64)
    config = VistaConfig(
        cpu=2, num_partitions=4, mem_storage_bytes=10**9,
        mem_user_bytes=10**9, mem_dl_bytes=10**9, join="shuffle",
        persistence="serialized",
    )

    def run(storage_bytes=None):
        ctx = local_context(num_nodes=1, cores_per_node=2, cpu=2)
        if storage_bytes is not None:
            ctx.workers[0].storage.capacity_bytes = storage_bytes
        executor = FeatureTransferExecutor(
            ctx, model, dataset, model.feature_layers[-3:], config,
            downstream_fn=lambda features, labels: {},
        )
        return ctx, executor.run(ALL_PLANS["eager"])

    with admissions() as charged:
        run()
    evicted = []
    cache = DistributedTable.cache

    def checked_cache(self, persistence):
        held = [weakref.ref(partition) for partition in self.partitions]
        cache(self, persistence)
        assert all(isinstance(p, StoredPartition) for p in self.partitions)
        (worker,) = self.context.workers
        gc.collect()
        evicted.extend(
            ref() is None for ref, stored in zip(held, self.partitions)
            if stored.key in worker.storage.spilled_keys())
        return self

    DistributedTable.cache = checked_cache
    try:
        ctx, result = run(storage_bytes=max(charged))
    finally:
        DistributedTable.cache = cache
    assert evicted and all(evicted)
    assert ctx.workers[0].storage.hit_count > 0
    assert result.metrics["spill_read_bytes"] > 0
