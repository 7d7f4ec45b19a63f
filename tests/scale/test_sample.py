"""Fanout neighbor sampling: caps, determinism, conventions, phase cost."""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.scale import NeighborSampler, make_scale_dataset, sample_in_edges


def _in_neighbors(graph, node):
    return graph.indices[graph.indptr[node]:graph.indptr[node + 1]]


@pytest.fixture(scope="module")
def graph():
    return make_scale_dataset(1000, avg_degree=6.0, seed=2).graph


class TestSampleInEdges:
    def test_fanout_caps_high_degree_nodes(self, graph):
        rng = np.random.default_rng(0)
        nodes = np.arange(graph.num_nodes)
        src, dst = sample_in_edges(graph, nodes, 4, rng)
        deg = graph.in_degrees()
        sampled = np.bincount(dst, minlength=graph.num_nodes)
        np.testing.assert_array_equal(sampled, np.minimum(deg, 4))

    def test_low_degree_nodes_keep_every_edge(self, graph):
        rng = np.random.default_rng(0)
        deg = graph.in_degrees()
        small = np.flatnonzero(deg <= 3)[:50]
        src, dst = sample_in_edges(graph, small, 3, rng)
        for node in small:
            np.testing.assert_array_equal(
                np.sort(src[dst == node]), np.sort(_in_neighbors(graph, node))
            )

    def test_sampled_edges_exist_in_graph(self, graph):
        rng = np.random.default_rng(1)
        src, dst = sample_in_edges(graph, np.arange(200), 5, rng)
        for s, d in zip(src[:100], dst[:100]):
            assert s in _in_neighbors(graph, d)

    def test_deterministic(self, graph):
        a = sample_in_edges(graph, np.arange(300), 5, np.random.default_rng(7))
        b = sample_in_edges(graph, np.arange(300), 5, np.random.default_rng(7))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_zero_fanout(self, graph):
        src, dst = sample_in_edges(graph, np.arange(50), 0,
                                   np.random.default_rng(0))
        assert len(src) == 0 and len(dst) == 0

    def test_negative_fanout_raises(self, graph):
        with pytest.raises(ValueError):
            sample_in_edges(graph, np.arange(5), -1, np.random.default_rng(0))


class TestNeighborSampler:
    def test_merged_subgraph_seeds_first(self, graph):
        seeds = np.array([5, 900, 17])
        sub = NeighborSampler(graph, (4, 4), rng=0).sample(seeds)
        np.testing.assert_array_equal(sub.nodes[: sub.n_seeds], seeds)
        assert len(np.unique(sub.nodes)) == sub.num_nodes  # no duplicates
        # Local endpoints must be valid positions.
        assert sub.src.max() < sub.num_nodes
        assert sub.dst.max() < sub.num_nodes

    def test_merged_subgraph_edges_are_real(self, graph):
        sub = NeighborSampler(graph, (3, 3), rng=0).sample(np.arange(20))
        src_g, dst_g = sub.nodes[sub.src], sub.nodes[sub.dst]
        for s, d in zip(src_g[:100], dst_g[:100]):
            assert s in _in_neighbors(graph, d)
        # Deduplicated: with-replacement draws never double an edge.
        keys = src_g * graph.num_nodes + dst_g
        assert len(np.unique(keys)) == len(keys)

    def test_deterministic_stream(self, graph):
        a = NeighborSampler(graph, (4, 4), rng=3).sample(np.arange(30))
        b = NeighborSampler(graph, (4, 4), rng=3).sample(np.arange(30))
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.src, b.src)
        np.testing.assert_array_equal(a.dst, b.dst)

    def test_empty_fanouts_raise(self, graph):
        with pytest.raises(ValueError):
            NeighborSampler(graph, ())

    def test_sampling_charged_under_sampling_phase(self, graph):
        device = Device()
        with use_device(device):
            NeighborSampler(graph, (4, 4), rng=0).sample(np.arange(50))
        phases = device.clock.phase_elapsed
        assert phases.get("sampling", 0.0) > 0.0
