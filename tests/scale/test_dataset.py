"""ScaleNodeDataset construction: determinism, splits, knobs, errors."""

import numpy as np
import pytest

from repro.scale import make_scale_dataset


class TestDeterminism:
    def test_bitwise_identical_for_same_seed(self):
        a = make_scale_dataset(1500, avg_degree=5.0, seed=4)
        b = make_scale_dataset(1500, avg_degree=5.0, seed=4)
        np.testing.assert_array_equal(a.graph.indptr, b.graph.indptr)
        np.testing.assert_array_equal(a.graph.indices, b.graph.indices)
        np.testing.assert_array_equal(a.graph.x, b.graph.x)
        np.testing.assert_array_equal(a.train_idx, b.train_idx)

    def test_seed_changes_graph(self):
        a = make_scale_dataset(1500, seed=4)
        b = make_scale_dataset(1500, seed=5)
        assert not np.array_equal(a.graph.indices, b.graph.indices)


class TestStructure:
    def test_splits_disjoint_and_sized(self):
        ds = make_scale_dataset(2000, train_fraction=0.1, val_fraction=0.05,
                                test_fraction=0.05, seed=0)
        assert len(ds.train_idx) == 200
        assert len(ds.val_idx) == 100
        assert len(ds.test_idx) == 100
        all_idx = np.concatenate([ds.train_idx, ds.val_idx, ds.test_idx])
        assert len(np.unique(all_idx)) == len(all_idx)

    def test_labels_are_contiguous_blocks(self):
        ds = make_scale_dataset(1000, n_classes=4, seed=0)
        y = ds.graph.y
        assert np.all(np.diff(y) >= 0)  # non-decreasing blocks
        assert len(np.unique(y)) == 4

    def test_self_loops_knob(self):
        plain = make_scale_dataset(500, seed=0)
        looped = make_scale_dataset(500, seed=0, self_loops=True)
        indptr, indices = looped.graph.indptr, looped.graph.indices
        diag = [v for v in range(500) if v in indices[indptr[v]:indptr[v + 1]]]
        assert len(diag) == 500
        assert looped.graph.num_edges == plain.graph.num_edges + 500

    def test_rmat_abc_knob_raises_homophily(self):
        def homophily(ds):
            ei = ds.graph.edge_index()
            y = ds.graph.y
            return float((y[ei[0]] == y[ei[1]]).mean())

        base = make_scale_dataset(2000, n_classes=4, seed=0)
        skewed = make_scale_dataset(2000, n_classes=4, seed=0,
                                    rmat_abc=(0.75, 0.10, 0.10))
        assert homophily(skewed) > homophily(base)

    def test_chung_lu_generator(self):
        ds = make_scale_dataset(1000, generator="chung_lu", seed=0)
        assert ds.graph.num_nodes == 1000
        assert ds.name == "chung_lu-1000"

    def test_to_node_dataset_round_trip(self):
        ds = make_scale_dataset(300, seed=0)
        full = ds.to_node_dataset()
        assert full.num_classes == ds.num_classes
        assert full.graph.num_edges == ds.graph.num_edges
        np.testing.assert_array_equal(full.train_idx, ds.train_idx)


class TestErrors:
    def test_unknown_generator(self):
        with pytest.raises(ValueError):
            make_scale_dataset(100, generator="barabasi")

    def test_fractions_exceed_one(self):
        with pytest.raises(ValueError):
            make_scale_dataset(100, train_fraction=0.8, val_fraction=0.2,
                               test_fraction=0.2)

    def test_fewer_nodes_than_classes(self):
        with pytest.raises(ValueError):
            make_scale_dataset(3, n_classes=8)
