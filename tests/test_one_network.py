"""Guard: a network is wired in one place.

Dropout, the ``conv1`` .. ``convL`` stack, the readout, the classifier and
the root profiler scope are the same on every pack and live in
``repro.models.net``; a pack supplies only its convs, how one conv runs on
its batch type, and its readout.  They were once written out in both
packs' base classes, twelve per-model subclasses and the dense baseline.
The same AST allow-list pattern as ``tests/test_one_loader.py``; the
forward / ``zero_grad`` / ``backward`` / ``step`` sequence gets the same
treatment, since it too was once restated beside ``train_step``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.densex import DenseGCNNet
from repro.models import MODEL_NAMES, Net, graph_config, node_config
from repro.packs import FRAMEWORKS, get_pack

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The one per-model subclass: dglx GatedGCN's edge-feature state, the
#: paper's observation 3, built after the classifier.
SUBCLASSES = {("dglx", "gatedgcn"): "models/__init__.py"}

ROOT_SCOPES = {
    "gcn": "GCNNet",
    "gin": "GINNet",
    "sage": "SAGENet",
    "gat": "GATNet",
    "monet": "MoNetNet",
    "gatedgcn": "GatedGCNNet",
}


def _files():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _config(task, model):
    make = graph_config if task == "graph" else node_config
    return make(model, in_dim=5, n_classes=3)


@pytest.mark.parametrize("task", ["graph", "node"])
@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_every_pack_builds_the_one_skeleton(framework, model, task):
    config = _config(task, model)
    net = get_pack(framework).build_model(config, np.random.default_rng(0))
    if (framework, model) in SUBCLASSES:
        assert type(net).__bases__ == (Net,)
    else:
        assert type(net) is Net
    assert net._scope_name == ROOT_SCOPES[model]
    assert net.conv_names == [f"conv{i + 1}" for i in range(config.n_layers)]


@pytest.mark.parametrize("task", ["graph", "node"])
def test_the_dense_baseline_builds_the_one_skeleton(task):
    net = DenseGCNNet(_config(task, "gcn"), np.random.default_rng(0))
    assert type(net) is Net
    assert net._scope_name == "DenseGCNNet"


def test_only_the_skeleton_builds_a_classifier_or_names_the_convs():
    builds, names = set(), set()
    for name, tree in _files():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "MLPReadout":
                builds.add(name)
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                isinstance(t, ast.Attribute) and t.attr == "conv_names" for t in targets
            ):
                names.add(name)
    assert builds == {"models/net.py"}, (
        f"MLPReadout built in {sorted(builds)}: the classifier belongs to repro.models.Net"
    )
    assert names == {"models/net.py"}, (
        f"conv_names assigned in {sorted(names)}: the conv stack belongs to repro.models.Net"
    )


def test_the_skeleton_has_only_its_allowed_subclass():
    found = {
        (name, node.name)
        for name, tree in _files()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", None) == "Net" for base in node.bases)
    }
    assert found == {("dglx/" + SUBCLASSES["dglx", "gatedgcn"], "GatedGCNNet")}, found


def test_only_the_training_loop_and_the_gradient_check_call_backward():
    found = {
        name
        for name, tree in _files()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "backward"
        and not node.args
        and not node.keywords  # a grad node's closure takes its gradient
    }
    assert found == {"train/loop.py", "tensor/gradcheck.py"}, (
        f"backward() called in {sorted(found)}: step through repro.train.loop.train_step"
    )
