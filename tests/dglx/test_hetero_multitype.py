"""Multi-type heterographs: schema handling, k-relation recasts, batching cost."""

import numpy as np
import pytest

from repro.dglx.hetero_multitype import HeteroDGLGraph, as_k_type_graph, batch_hetero
from repro.tensor import Tensor


def bipartite():
    """users -(rates)-> items"""
    edges = {
        ("user", "rates", "item"): (np.array([0, 1, 1]), np.array([0, 0, 1])),
    }
    return HeteroDGLGraph({"user": 2, "item": 2}, edges)


class TestSchema:
    def test_types_listed(self):
        g = bipartite()
        assert set(g.ntypes) == {"user", "item"}
        assert g.canonical_etypes == [("user", "rates", "item")]

    def test_counts(self):
        g = bipartite()
        assert g.num_nodes("user") == 2
        assert g.num_nodes("item") == 2

    def test_unknown_node_type_in_edges_rejected(self):
        with pytest.raises(ValueError):
            HeteroDGLGraph({"a": 2}, {("a", "r", "b"): (np.array([0]), np.array([0]))})

    def test_src_dst_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HeteroDGLGraph(
                {"a": 2}, {("a", "r", "a"): (np.array([0, 1]), np.array([0]))}
            )

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            HeteroDGLGraph({}, {})


class TestKTypeRecast:
    def test_every_edge_lands_in_exactly_one_relation(self, rng):
        """Splitting edges into k relations keeps the represented graph."""
        edge_index = np.array([[0, 1, 2, 0, 2], [1, 2, 0, 2, 1]])
        x = rng.normal(size=(3, 4)).astype(np.float32)
        g = as_k_type_graph(edge_index, x, 3, np.random.default_rng(0))
        assert len(g.canonical_etypes) == 3
        src = np.concatenate([g._edges[e][0] for e in g.canonical_etypes])
        dst = np.concatenate([g._edges[e][1] for e in g.canonical_etypes])
        recast = sorted(zip(src.tolist(), dst.tolist()))
        assert recast == sorted(zip(*edge_index.tolist()))
        np.testing.assert_array_equal(g.ndata("_N")["feat"].data, x)


class TestHeterogeneousBatching:
    def make_graphs(self, n, k, rng):
        graphs = []
        for _ in range(n):
            edge_index = np.stack([rng.integers(0, 8, 20), rng.integers(0, 8, 20)])
            x = rng.normal(size=(8, 4)).astype(np.float32)
            graphs.append(as_k_type_graph(edge_index, x, k, rng))
        return graphs

    def test_batched_counts(self, rng):
        graphs = self.make_graphs(3, 2, rng)
        batched = batch_hetero(graphs)
        assert batched.num_nodes("_N") == 24
        total_edges = sum(len(src) for src, _ in batched._edges.values())
        assert total_edges == 60

    def test_features_concatenated(self, rng):
        graphs = self.make_graphs(2, 1, rng)
        batched = batch_hetero(graphs)
        expected = np.concatenate(
            [g.ndata("_N")["feat"].data for g in graphs], axis=0
        )
        np.testing.assert_array_equal(batched.ndata("_N")["feat"].data, expected)

    def test_schema_mismatch_rejected(self, rng):
        a = self.make_graphs(1, 1, rng)[0]
        b = self.make_graphs(1, 2, rng)[0]
        with pytest.raises(ValueError):
            batch_hetero([a, b])

    def test_batching_cost_grows_with_type_count(self, rng, fresh_device):
        """The heterograph tax: same structure, more types, slower collation."""
        costs = {}
        for k in (1, 4):
            graphs = self.make_graphs(16, k, rng)
            before = fresh_device.clock.elapsed
            batch_hetero(graphs)
            costs[k] = fresh_device.clock.elapsed - before
        assert costs[4] > costs[1]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            batch_hetero([])
