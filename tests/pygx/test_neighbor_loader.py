"""PyG-style NeighborLoader: batch layout, knobs, determinism."""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.pygx import NeighborLoader
from repro.scale import make_scale_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_scale_dataset(600, avg_degree=6.0, n_classes=4,
                              n_features=8, seed=0)


def collect(loader):
    with use_device(Device()):
        return list(loader)


class TestBatches:
    def test_batch_count_and_seed_alignment(self, dataset):
        seeds = dataset.train_idx
        loader = NeighborLoader(dataset.graph, seeds, (4, 4), batch_size=16)
        assert len(loader) == (len(seeds) + 15) // 16
        batches = collect(loader)
        assert len(batches) == len(loader)
        offset = 0
        for batch in batches:
            chunk = seeds[offset:offset + 16]
            np.testing.assert_array_equal(batch.seed_nodes, chunk)
            # Seeds occupy the first rows, labels line up with them.
            np.testing.assert_array_equal(batch.y, dataset.graph.y[chunk])
            assert batch.n_seeds == len(chunk)
            assert batch.num_nodes >= batch.n_seeds
            assert batch.edge_index.shape[0] == 2
            offset += 16

    def test_deterministic_with_seeded_rng(self, dataset):
        def edges():
            loader = NeighborLoader(dataset.graph, dataset.train_idx, (4, 4),
                                    batch_size=16, shuffle=True, rng=5)
            return [b.edge_index.copy() for b in collect(loader)]

        for a, b in zip(edges(), edges()):
            np.testing.assert_array_equal(a, b)

    def test_ensure_self_loops(self, dataset):
        loader = NeighborLoader(dataset.graph, dataset.train_idx[:32], (3, 3),
                                batch_size=32, ensure_self_loops=True)
        (batch,) = collect(loader)
        src, dst = batch.edge_index
        loops = src == dst
        # Exactly one self edge per sampled node, no sampled duplicates.
        np.testing.assert_array_equal(np.sort(src[loops]),
                                      np.arange(batch.num_nodes))

    def test_full_graph_norm_attaches_true_degrees(self, dataset):
        loader = NeighborLoader(dataset.graph, dataset.train_idx[:32], (2, 2),
                                batch_size=32, full_graph_norm=True)
        (batch,) = collect(loader)
        # Seeds occupy the first rows, so their entries line up with the
        # full-graph in-degrees of the seed nodes.
        expected = np.diff(dataset.graph.indptr)[batch.seed_nodes]
        np.testing.assert_array_equal(batch.true_in_degrees[: batch.n_seeds],
                                      expected)
        assert len(batch.true_in_degrees) == batch.num_nodes

    def test_without_norm_no_degrees(self, dataset):
        loader = NeighborLoader(dataset.graph, dataset.train_idx[:8], (2, 2),
                                batch_size=8)
        (batch,) = collect(loader)
        assert batch.true_in_degrees is None


class TestValidation:
    def test_bad_batch_size(self, dataset):
        with pytest.raises(ValueError):
            NeighborLoader(dataset.graph, dataset.train_idx, (4,), batch_size=0)

    def test_missing_labels(self, dataset):
        from repro.graph import CSRBigGraph

        bare = CSRBigGraph(dataset.graph.indptr, dataset.graph.indices,
                           x=dataset.graph.x)
        with pytest.raises(ValueError, match=r"graph has no labels \(y is None\)$"):
            NeighborLoader(bare, dataset.train_idx, (4,), batch_size=8)
