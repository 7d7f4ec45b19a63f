"""Declared-sparse features are computed sparse and charged dense.

Cora's bag-of-words ``x`` is declared sparse when the dataset is built, so
input dropout and the first projection run on its nonzeros on the host.
The simulated device must not notice: one training epoch (a step and the
no-grad validation forward) per pack x {GCN, GAT} is run on the declared
features and on a writable, undeclared copy of them, and both runs must
launch the same kernels with the same FLOPs, bytes and pool bytes, end on
the same clock bit for bit and reach the same losses up to the CSR
summation order.  No dropped or row-scaled input is ever built dense: each
stays a ``DeclaredTensor`` that nothing reads ``.data`` from.
"""

import numpy as np
import pytest

from repro.datasets import cora
from repro.datasets.base import NodeClassificationDataset
from repro.device import Device
from repro.graph import GraphSample
from repro.tensor import ops
from repro.tensor._declared import DeclaredTensor
from repro.train import NodeClassificationTrainer


@pytest.fixture(scope="module")
def declared_and_copy():
    declared = cora(0)
    graph = declared.graph
    copy = NodeClassificationDataset(
        declared.name,
        GraphSample(graph.edge_index, graph.x.copy(), graph.y),
        declared.num_classes,
        declared.train_idx,
        declared.val_idx,
        declared.test_idx,
    )
    return declared, copy


def _one_epoch(monkeypatch, framework, model, dataset):
    """What one epoch left on a fresh device, and how many lookups hit declared rows."""
    hits, lookup, built = [], ops.sparse_rows, []

    def spy(array):
        rows = lookup(array)
        hits.append(rows is not None)
        return rows

    monkeypatch.setattr(ops, "sparse_rows", spy)
    # A declared output builds its dense array on the first read of ``.data``.
    read = DeclaredTensor.data.fget

    def spy_read(tensor):
        if tensor._dense is None:
            built.append(tensor.shape)
        return read(tensor)

    monkeypatch.setattr(DeclaredTensor, "data", property(spy_read))
    device = Device()
    device.profiler.enabled = True
    result = NodeClassificationTrainer(framework, model, dataset, max_epochs=1, device=device).run()
    monkeypatch.undo()
    assert built == [], "a declared output was built dense"
    launches = [(r.name, r.flops, r.bytes_moved, r.memory) for r in device.profiler.records]
    epoch = result.epochs[0]
    return sum(hits), launches, device.memory.peak, device.clock.elapsed, (epoch.train_loss, epoch.val_loss)


@pytest.mark.parametrize("model", ["gcn", "gat"])
@pytest.mark.parametrize("framework", ["pygx", "dglx"])
def test_declared_features_are_charged_as_the_dense_copy(monkeypatch, declared_and_copy, framework, model):
    declared, copy = declared_and_copy
    assert not declared.graph.x.flags.writeable and copy.graph.x.flags.writeable
    sparse = _one_epoch(monkeypatch, framework, model, declared)
    dense = _one_epoch(monkeypatch, framework, model, copy)
    assert sparse[0] > 0 and dense[0] == 0, "only the declared run computes on the nonzeros"
    launches, dense_launches = sparse[1], dense[1]
    assert len(launches) == len(dense_launches) > 0
    assert launches == dense_launches
    assert sparse[2] == dense[2]
    assert sparse[3].hex() == dense[3].hex()
    np.testing.assert_allclose(sparse[4], dense[4], rtol=1e-6, atol=0)


def test_dglx_gcn_projects_declared_rows(monkeypatch, declared_and_copy):
    # GraphConv scales the dropped input by deg^-1/2 before its Linear; the
    # scaling keeps it declared, so the first projection is a CSR product.
    resolved, matmul = [], ops.matmul

    def spy(a, b):
        resolved.append(type(a) is DeclaredTensor)
        return matmul(a, b)

    monkeypatch.setattr(ops, "matmul", spy)
    NodeClassificationTrainer("dglx", "gcn", declared_and_copy[0], max_epochs=1, device=Device()).run()
    assert resolved[0], "dglx GCN's first matmul computed the dense input"
