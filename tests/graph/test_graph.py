"""GraphSample container and random structure generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    GraphSample,
    clique_motif,
    connected_chain_backbone,
    dedupe_edges,
    knn_edges,
    planted_partition,
    ring_motif,
    star_motif,
    undirected_edge_index,
)


class TestGraphSample:
    def make(self):
        edge_index = np.array([[0, 1], [1, 2]])
        x = np.zeros((3, 4), np.float32)
        return GraphSample(edge_index, x, 0)

    def test_counts(self):
        g = self.make()
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.num_features == 4

    def test_degrees(self):
        g = self.make()
        np.testing.assert_array_equal(g.in_degrees(), [0, 1, 1])

    def test_rejects_bad_edge_index_shape(self):
        with pytest.raises(ValueError):
            GraphSample(np.zeros((3, 2)), np.zeros((2, 2), np.float32), 0)

    def test_rejects_out_of_range_edges(self):
        with pytest.raises(ValueError):
            GraphSample(np.array([[0], [5]]), np.zeros((2, 2), np.float32), 0)

    def test_rejects_negative_edges(self):
        with pytest.raises(ValueError):
            GraphSample(np.array([[-1], [0]]), np.zeros((2, 2), np.float32), 0)

    def test_rejects_1d_features(self):
        with pytest.raises(ValueError):
            GraphSample(np.zeros((2, 0), np.int64), np.zeros(3, np.float32), 0)

    def test_pos_length_checked(self):
        with pytest.raises(ValueError):
            GraphSample(
                np.zeros((2, 0), np.int64),
                np.zeros((3, 2), np.float32),
                0,
                pos=np.zeros((2, 2), np.float32),
            )


class TestEdgeUtilities:
    def test_undirected_doubles(self):
        ei = undirected_edge_index(np.array([0, 1]), np.array([1, 2]))
        assert ei.shape == (2, 4)
        # both directions present
        pairs = set(map(tuple, ei.T))
        assert (0, 1) in pairs and (1, 0) in pairs

    def test_dedupe_removes_self_loops_and_duplicates(self):
        src = np.array([0, 0, 1, 2, 1])
        dst = np.array([0, 1, 0, 2, 2])
        s, d = dedupe_edges(src, dst, 3)
        pairs = set(zip(s.tolist(), d.tolist()))
        assert pairs == {(0, 1), (1, 2)}

    def test_dedupe_canonicalises_direction(self):
        s, d = dedupe_edges(np.array([2]), np.array([0]), 3)
        assert (s[0], d[0]) == (0, 2)


class TestMotifs:
    def test_ring(self):
        s, d = ring_motif(5, 4)
        assert len(s) == 4
        assert set(s) | set(d) == {5, 6, 7, 8}

    def test_clique_edge_count(self):
        s, d = clique_motif(0, 5)
        assert len(s) == 10  # 5 choose 2

    def test_star(self):
        s, d = star_motif(2, 4)
        assert all(x == 2 for x in s)
        assert len(d) == 3

    def test_chain_is_connected(self, rng):
        s, d = connected_chain_backbone(10, rng)
        assert len(s) == 9
        assert set(np.concatenate([s, d])) == set(range(10))


class TestRandomGenerators:
    def test_planted_partition_homophily(self, rng):
        labels = np.repeat(np.arange(4), 100)
        s, d = planted_partition(labels, 2000, intra_fraction=0.9, rng=rng)
        same = (labels[s] == labels[d]).mean()
        assert same > 0.7

    def test_planted_partition_validates_fraction(self, rng):
        with pytest.raises(ValueError):
            planted_partition(np.zeros(4, int), 10, 1.5, rng)

    def test_knn_edges_within_range(self, rng):
        pts = rng.random((30, 2)).astype(np.float32)
        s, d = knn_edges(pts, 4)
        assert s.max() < 30 and d.max() < 30
        assert np.all(s < d)  # canonical undirected form

    def test_knn_single_point(self, rng):
        s, d = knn_edges(np.zeros((1, 2), np.float32), 4)
        assert len(s) == 0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 40), n_edges=st.integers(1, 120), seed=st.integers(0, 1000))
def test_dedupe_properties(n, n_edges, seed):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, n_edges)
    dst = rng.integers(0, n, n_edges)
    s, d = dedupe_edges(src, dst, n)
    assert np.all(s < d)  # no self loops, canonical order
    keys = s * n + d
    assert len(np.unique(keys)) == len(keys)  # no duplicates
