"""The one configuration each model runs on both packs (Table III, Eqs. 2-3).

Readout is the per-graph mean, and SAGE aggregates with mean-pool: a ReLU'd
``fc_pool`` projection of each neighbour, averaged per destination.
"""

import numpy as np
import pytest

from repro.datasets import enzymes
from repro.graph import GraphSample
from repro.models import graph_config
from repro.nn import Module
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def tiny():
    return enzymes(seed=0, num_graphs=12)


class _Spy(Module):
    """Runs ``inner`` (if any) and keeps what it returned."""

    def __init__(self, inner=None):
        super().__init__()
        self.inner = inner
        self.out = None

    def forward(self, *args):
        self.out = self.inner(*args) if self.inner is not None else args[0]
        return self.out


def _pygx(graphs):
    from repro.pygx import Batch, Data

    batch = Batch.from_data_list([Data.from_sample(g) for g in graphs])
    return batch, batch.batch


def _dglx(graphs):
    from repro.dglx import batch

    g = batch(graphs)
    offsets = g.node_offsets()
    return g, np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))


@pytest.mark.parametrize("framework, collate", [("pygx", _pygx), ("dglx", _dglx)])
def test_graph_readout_is_the_per_graph_mean(framework, collate, tiny):
    from repro.packs import get_pack

    cfg = graph_config("gcn", in_dim=tiny.num_features, n_classes=tiny.num_classes)
    net = get_pack(framework).build_model(cfg, np.random.default_rng(0))
    net.eval()
    last = net.conv_names[-1]
    nodes = _Spy(getattr(net, last))
    setattr(net, last, nodes)
    net.classifier = readout = _Spy()
    inputs, graph_of_node = collate(tiny.graphs)
    net(inputs)
    h = nodes.out.data.astype(np.float64)
    expected = np.stack([h[graph_of_node == i].mean(axis=0) for i in range(len(tiny.graphs))])
    np.testing.assert_allclose(readout.out.data, expected, rtol=1e-5, atol=1e-6)


def _star():
    """Nodes 1..3 point at node 0; node 3 also points at node 1."""
    edge_index = np.array([[1, 2, 3, 3], [0, 0, 0, 1]])
    x = np.random.default_rng(1).normal(size=(4, 5)).astype(np.float32)
    return GraphSample(edge_index, x, 0)


def _mean_pool_reference(conv, sample):
    """Each node's mean over in-neighbours of ``relu(fc_pool(x))``; 0 without any."""
    pooled = np.maximum(sample.x @ conv.fc_pool.weight.data + conv.fc_pool.bias.data, 0.0)
    agg = np.zeros_like(pooled)
    src, dst = sample.edge_index
    for node in range(len(sample.x)):
        if np.any(dst == node):
            agg[node] = pooled[src[dst == node]].mean(axis=0)
    return agg


def test_pygx_sage_aggregates_the_pooled_neighbours():
    from repro.pygx.models.sage import SAGEConv

    sample = _star()
    conv = SAGEConv(5, 3, np.random.default_rng(0), activation=False)
    assert conv.fc_pool.weight.shape == (5, 3)
    out = conv(Tensor(sample.x), sample.edge_index, 4)
    agg = _mean_pool_reference(conv, sample)
    expected = np.concatenate([sample.x, agg], axis=1) @ conv.fc.weight.data + conv.fc.bias.data
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)


def test_dglx_sage_aggregates_the_pooled_neighbours():
    from repro.dglx import batch
    from repro.dglx.models.sage import SAGEConv

    sample = _star()
    conv = SAGEConv(5, 3, np.random.default_rng(0), activation=False)
    assert conv.fc_pool.weight.shape == (5, 3)
    assert conv.fc_neigh.weight.shape == (3, 3)
    g = batch([sample])
    out = conv(g, g.ndata["feat"])
    agg = _mean_pool_reference(conv, sample)
    expected = (
        sample.x @ conv.fc_self.weight.data + conv.fc_self.bias.data
        + agg @ conv.fc_neigh.weight.data + conv.fc_neigh.bias.data
    )
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)
