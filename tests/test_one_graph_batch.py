"""A one-graph batch is the graph.

Collating a lone graph hands the device fresh read-only views of the
graph's own arrays instead of copies: the host holds the features once,
while the simulated pool charges what it always did.  Every
batch array is read-only, so a write into a batch cannot reach the dataset
it may share memory with.
"""

import tracemalloc

import numpy as np
import pytest

from repro.dglx.hetero_multitype import as_k_type_graph, batch_hetero
from repro.graph import GraphSample
from repro.packs import FRAMEWORKS, get_pack


def _graph(n, feat, edges, seed=0, y=0):
    rng = np.random.default_rng(seed)
    edge_index = rng.integers(0, n, (2, edges))
    return GraphSample(edge_index, rng.standard_normal((n, feat)).astype(np.float32), y)


def _arrays(framework, inputs):
    """``(features, [edge arrays])`` of one collated batch."""
    if framework == "pygx":
        return inputs.x.data, [inputs.edge_index]
    return inputs.ndata["feat"].data, list(inputs.edges())


def _charged(framework, graphs):
    """The pool charge of one collation: the features, the edges and, on pygx, the batch vector."""
    n = sum(g.num_nodes for g in graphs)
    edges = sum(g.edge_index.nbytes for g in graphs)
    return sum(g.x.nbytes for g in graphs) + edges + (8 * n if framework == "pygx" else 0)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_a_lone_graph_is_collated_without_copying_its_features(fresh_device, framework):
    graph = _graph(2048, 1024, 4096)
    assert graph.x.nbytes >= 8 * 2**20
    collate = get_pack(framework).collate
    before = fresh_device.memory.current

    tracemalloc.start()
    try:
        (inputs, _), host = collate([graph]), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert host < graph.x.nbytes / 8, f"collating one graph allocated {host} bytes on the host"
    features, edges = _arrays(framework, inputs)
    assert np.shares_memory(features, graph.x)
    assert all(np.shares_memory(e, graph.edge_index) for e in edges)
    # The pool is charged what a copy cost, and frees it with the batch.
    assert fresh_device.memory.current - before == _charged(framework, [graph])
    del inputs, features, edges
    assert fresh_device.memory.current == before, "a view outlived its batch"


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_each_collation_of_one_graph_is_charged_and_freed_on_its_own(fresh_device, framework):
    graph = _graph(50, 8, 120)
    collate = get_pack(framework).collate
    before = fresh_device.memory.current
    first, _ = collate([graph])
    second, _ = collate([graph])
    assert _arrays(framework, first)[0] is not _arrays(framework, second)[0]
    assert fresh_device.memory.current - before == 2 * _charged(framework, [graph])
    del first
    assert fresh_device.memory.current - before == _charged(framework, [graph])
    del second
    assert fresh_device.memory.current == before


@pytest.mark.parametrize("n_graphs", [1, 3], ids=["lone", "mini-batch"])
@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_every_batch_array_is_read_only(fresh_device, framework, n_graphs):
    graphs = [_graph(20 + i, 4, 30, seed=i) for i in range(n_graphs)]
    originals = [(g.x.copy(), g.edge_index.copy()) for g in graphs]
    features, edges = _arrays(framework, get_pack(framework).collate(graphs)[0])
    for array in [features, *edges]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    for graph, (x, edge_index) in zip(graphs, originals):
        assert graph.x.flags.writeable and graph.edge_index.flags.writeable
        np.testing.assert_array_equal(graph.x, x)
        np.testing.assert_array_equal(graph.edge_index, edge_index)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_a_mini_batch_is_the_offset_concatenation(fresh_device, framework):
    graphs = [_graph(10 + 3 * i, 5, 12 + i, seed=i) for i in range(4)]
    features, edges = _arrays(framework, get_pack(framework).collate(graphs)[0])
    offsets = np.cumsum([0] + [g.num_nodes for g in graphs[:-1]])
    expected = np.concatenate([g.edge_index + off for g, off in zip(graphs, offsets)], axis=1)
    np.testing.assert_array_equal(features, np.concatenate([g.x for g in graphs]))
    np.testing.assert_array_equal(np.vstack(edges), expected)
    assert not any(np.shares_memory(features, g.x) for g in graphs)


@pytest.mark.parametrize("framework", FRAMEWORKS)
def test_per_node_labels_collate_one_per_node(fresh_device, framework):
    small = _graph(3, 2, 4, y=np.array([0, 1, 2]))
    large = _graph(5, 2, 4, seed=1, y=np.array([4, 3, 2, 1, 0]))
    collate = get_pack(framework).collate
    _, labels = collate([small])
    np.testing.assert_array_equal(labels, small.y)
    assert np.shares_memory(labels, small.y)
    _, labels = collate([small, large])
    np.testing.assert_array_equal(labels, [0, 1, 2, 4, 3, 2, 1, 0])
    # Graph-level labels still stack, one per graph.
    _, labels = collate([_graph(3, 2, 4, y=2), _graph(4, 2, 4, y=5)])
    np.testing.assert_array_equal(labels, [2, 5])


def test_a_lone_heterograph_batch_shares_its_graphs_arrays(fresh_device):
    graph = _graph(40, 6, 80)
    hetero = as_k_type_graph(graph.edge_index, graph.x, 3, np.random.default_rng(0))
    batched = batch_hetero([hetero])
    feat = batched.ndata("_N")["feat"].data
    assert np.shares_memory(feat, hetero.ndata("_N")["feat"].data)
    assert not feat.flags.writeable
    for etype in hetero.canonical_etypes:
        for mine, theirs in zip(batched._edges[etype], hetero._edges[etype]):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
