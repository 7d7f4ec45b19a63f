"""Degree-balanced row-block partitioner invariants."""

import numpy as np
import pytest

from repro.scale import degree_balanced_partition, make_scale_dataset


@pytest.fixture(scope="module")
def graph():
    return make_scale_dataset(2000, avg_degree=6.0, seed=1).graph


@pytest.mark.parametrize("k", [1, 2, 5, 16])
class TestInvariants:
    def test_every_node_in_exactly_one_part(self, graph, k):
        partition = degree_balanced_partition(graph, k)
        assignment = partition.assignment()
        covered = np.zeros(graph.num_nodes, dtype=int)
        for part in partition.parts:
            assert part.lo < part.hi  # no empty parts
            covered[part.lo:part.hi] += 1
            assert np.all(assignment[part.lo:part.hi] == part.part_id)
        np.testing.assert_array_equal(covered, 1)

    def test_edges_fully_covered(self, graph, k):
        partition = degree_balanced_partition(graph, k)
        assert sum(p.num_edges for p in partition.parts) == graph.num_edges

    def test_halo_covers_every_cut_edge(self, graph, k):
        partition = degree_balanced_partition(graph, k)
        for part in partition.parts:
            sources = graph.indices[graph.indptr[part.lo]:graph.indptr[part.hi]]
            outside = sources[(sources < part.lo) | (sources >= part.hi)]
            # Every ghost source is in the halo, the halo holds nothing
            # else, and it is sorted + unique (searchsorted relies on it).
            np.testing.assert_array_equal(part.halo, np.unique(outside))
            assert part.cut_edges == len(outside)

    def test_deterministic(self, graph, k):
        a = degree_balanced_partition(graph, k)
        b = degree_balanced_partition(graph, k)
        for pa, pb in zip(a.parts, b.parts):
            assert (pa.lo, pa.hi) == (pb.lo, pb.hi)
            np.testing.assert_array_equal(pa.halo, pb.halo)


class TestDegenerate:
    def test_k_equals_one_has_no_cut(self, graph):
        partition = degree_balanced_partition(graph, 1)
        (part,) = partition.parts
        assert (part.lo, part.hi) == (0, graph.num_nodes)
        assert part.cut_edges == 0 and len(part.halo) == 0
        stats = partition.stats()
        assert stats.cut_edges == 0
        assert stats.replication_factor == 1.0

    def test_k_above_node_count_clamps(self, graph):
        partition = degree_balanced_partition(graph, graph.num_nodes + 50)
        assert partition.k == graph.num_nodes
        assert all(p.num_owned == 1 for p in partition.parts)

    def test_k_below_one_raises(self, graph):
        with pytest.raises(ValueError):
            degree_balanced_partition(graph, 0)

    def test_empty_graph(self):
        from repro.graph import CSRBigGraph

        empty = CSRBigGraph(np.zeros(1, np.int64), np.empty(0, np.int64))
        assert degree_balanced_partition(empty, 4).parts == []


class TestBalance:
    def test_edge_balance_beats_naive_split_on_skewed_graph(self):
        # R-MAT graph: low ids are the hubs, so equal node ranges pile
        # their edges into one part; the edge-prefix cut keeps every part
        # near the mean.
        ds = make_scale_dataset(5000, avg_degree=8.0, seed=3)
        k = 8
        stats = degree_balanced_partition(ds.graph, k).stats()
        assert stats.edge_balance < 1.5

        bounds = np.linspace(0, ds.graph.num_nodes, k + 1).astype(int)
        naive = [
            ds.graph.indptr[hi] - ds.graph.indptr[lo]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        naive_balance = max(naive) / (sum(naive) / k)
        assert stats.edge_balance < naive_balance

    def test_stats_shapes(self, graph):
        stats = degree_balanced_partition(graph, 4).stats()
        assert stats.k == 4
        assert len(stats.edge_counts) == 4
        assert sum(stats.node_counts) == graph.num_nodes
        assert stats.replication_factor >= 1.0
