"""Golden output of the planner's CLI views at paper scale.

``repro plan``, ``repro estimate`` and ``repro explain --json`` print
Algorithm 1's choice, Eq. 16's sizes and the cost model's priced
runtimes for the three roster CNNs. Every number in them is a pure
function of the roster statistics and the paper's constants, so this
module pins their exact text: a refactor of the planner's inputs must
leave it byte-identical.

Regenerate after an intended output change with::

    PYTHONPATH=src python -m tests.test_golden_planner

and quote the diff of ``tests/golden/planner/`` in CHANGES.md.
"""

import contextlib
import io
import os
import tempfile

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "planner")

MODELS = ("alexnet", "vgg16", "resnet50")
APPROACHES = ("lazy-5", "eager", "vista")
BACKENDS = ("spark", "ignite")


def _cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return f"{out.getvalue()}[exit {code}]\n"


def _explain_json(model, workdir):
    path = os.path.join(workdir, f"explain-{model}.json")
    _cli("explain", "--model", model, "--pin-plan", "eager",
         "--json", path)
    with open(path) as handle:
        return handle.read()


def render_views(workdir):
    """Render every planner view; returns ``{golden name: text}``."""
    views = {}
    for model in MODELS:
        views[f"plan-{model}"] = _cli("plan", "--model", model)
        for approach in APPROACHES:
            for backend in BACKENDS:
                views[f"estimate-{model}-{approach}-{backend}"] = _cli(
                    "estimate", "--model", model, "--approach", approach,
                    "--backend", backend,
                )
        views[f"explain-eager-{model}"] = _explain_json(model, workdir)
    return views


def _golden_names():
    return sorted(name[:-len(".txt")] for name in os.listdir(GOLDEN_DIR)
                  if name.endswith(".txt"))


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    return render_views(str(tmp_path_factory.mktemp("planner")))


def test_every_planner_view_has_a_golden(views):
    assert sorted(views) == _golden_names()


@pytest.mark.parametrize("name", _golden_names())
def test_planner_view_matches_golden(views, name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt")) as handle:
        assert views[name] == handle.read()


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        for view_name, text in render_views(scratch).items():
            with open(os.path.join(GOLDEN_DIR, f"{view_name}.txt"),
                      "w") as handle:
                handle.write(text)
