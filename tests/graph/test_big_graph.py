"""CSRBigGraph: construction, validation and CSR/COO round trips."""

import numpy as np
import pytest

from repro.graph import CSRBigGraph, gather_rows


def _in_neighbors(g, node):
    return g.indices[g.indptr[node]:g.indptr[node + 1]]


def small_graph(**kwargs):
    # 0 -> 1, 1 -> 2, 3 -> 2 directed; from_edges mirrors each edge.
    return CSRBigGraph.from_edges(
        np.array([0, 1, 3]), np.array([1, 2, 2]), 4, **kwargs
    )


class TestConstruction:
    def test_from_edges_symmetrized(self):
        g = small_graph()
        assert g.num_nodes == 4
        assert g.num_edges == 6  # every directed edge plus its mirror
        np.testing.assert_array_equal(np.sort(_in_neighbors(g, 2)), [1, 3])
        np.testing.assert_array_equal(np.sort(_in_neighbors(g, 1)), [0, 2])

    def test_in_degrees_count_each_mirror(self):
        np.testing.assert_array_equal(small_graph().in_degrees(), [1, 2, 2, 1])

    def test_from_edges_output_is_symmetric(self):
        rng = np.random.default_rng(0)
        g = CSRBigGraph.from_edges(rng.integers(0, 20, 60), rng.integers(0, 20, 60), 20)
        edges = set(map(tuple, g.edge_index().T.tolist()))
        assert edges == {(v, u) for u, v in edges}

    def test_symmetrize_dedupes_mirrors(self):
        # Both directions given explicitly must not double the edge.
        g = CSRBigGraph.from_edges(np.array([0, 1]), np.array([1, 0]), 2)
        assert g.num_edges == 2

    def test_self_loops_survive(self):
        g = CSRBigGraph.from_edges(np.array([0, 0]), np.array([0, 1]), 2)
        assert 0 in _in_neighbors(g, 0)

    def test_edge_index_round_trip(self):
        g = small_graph()
        ei = g.edge_index()
        g2 = CSRBigGraph.from_edges(ei[0], ei[1], 4)
        np.testing.assert_array_equal(g.indptr, g2.indptr)
        np.testing.assert_array_equal(g.indices, g2.indices)

    def test_features_and_labels(self):
        x = np.ones((4, 3), np.float32)
        y = np.arange(4)
        g = small_graph(x=x, y=y)
        assert g.num_features == 3
        assert g.nbytes() == g.indptr.nbytes + g.indices.nbytes + x.nbytes + y.nbytes


class TestValidation:
    def test_rejects_bad_indptr_ends(self):
        with pytest.raises(ValueError):
            CSRBigGraph(np.array([0, 1]), np.empty(0, np.int64))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRBigGraph(np.array([0, 2, 1]), np.zeros(1, np.int64))

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            CSRBigGraph(np.array([0, 1]), np.array([5]))

    def test_rejects_mismatched_features(self):
        with pytest.raises(ValueError):
            CSRBigGraph(np.array([0, 0, 0]), np.empty(0, np.int64),
                        x=np.zeros((3, 2), np.float32))

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            CSRBigGraph(np.array([0, 0, 0]), np.empty(0, np.int64),
                        y=np.zeros(3, np.int64))


class TestHelpers:
    def test_gather_rows_contiguous_float32(self):
        x = np.arange(12, dtype=np.float64).reshape(4, 3)
        rows = gather_rows(x, np.array([2, 0]))
        assert rows.dtype == np.float32
        assert rows.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(rows[0], x[2])
