"""Synthetic datasets: Table I statistics, splits, registry."""

import numpy as np
import pytest

from repro.datasets import (
    DD_SPEC,
    ENZYMES_SPEC,
    GraphClassificationDataset,
    NodeClassificationDataset,
    compute_statistics,
    cora,
    enzymes,
    kfold_splits,
    load_dataset,
    mnist_superpixels,
    planetoid_split,
    stratified_folds,
)
from repro.graph import GraphSample


@pytest.fixture(scope="module")
def cora_ds():
    return cora(seed=0)


@pytest.fixture(scope="module")
def enzymes_ds():
    return enzymes(seed=0)


class TestCora:
    def test_table1_statistics(self, cora_ds):
        stats = compute_statistics(cora_ds)
        assert stats.num_graphs == 1
        assert stats.avg_nodes == 2708
        assert stats.num_features == 1433
        assert stats.num_classes == 7
        assert abs(stats.avg_edges - 5429) < 120

    def test_split_sizes(self, cora_ds):
        assert len(cora_ds.train_idx) == 140
        assert len(cora_ds.val_idx) == 500
        assert len(cora_ds.test_idx) == 1000

    def test_splits_disjoint(self, cora_ds):
        a = set(cora_ds.train_idx)
        b = set(cora_ds.val_idx)
        c = set(cora_ds.test_idx)
        assert not (a & b) and not (a & c) and not (b & c)

    def test_train_split_class_balanced(self, cora_ds):
        labels = np.asarray(cora_ds.graph.y)[cora_ds.train_idx]
        counts = np.bincount(labels, minlength=7)
        assert np.all(counts == 20)

    def test_homophily_present(self, cora_ds):
        ei = cora_ds.graph.edge_index
        labels = np.asarray(cora_ds.graph.y)
        same = (labels[ei[0]] == labels[ei[1]]).mean()
        assert same > 0.5  # citation graphs are homophilous

    def test_features_binary(self, cora_ds):
        x = cora_ds.graph.x
        assert set(np.unique(x)).issubset({0.0, 1.0})

    def test_deterministic_per_seed(self):
        a, b = cora(seed=7), cora(seed=7)
        np.testing.assert_array_equal(a.graph.x, b.graph.x)
        np.testing.assert_array_equal(a.graph.edge_index, b.graph.edge_index)

    def test_different_seeds_differ(self):
        a, b = cora(seed=0), cora(seed=1)
        assert not np.array_equal(a.graph.edge_index, b.graph.edge_index)


class TestTU:
    def test_enzymes_table1(self, enzymes_ds):
        stats = compute_statistics(enzymes_ds)
        assert stats.num_graphs == 600
        assert abs(stats.avg_nodes - 32.63) < 4
        assert abs(stats.avg_edges - 62.14) < 10
        assert stats.num_features == 18
        assert stats.num_classes == 6

    def test_enzymes_balanced_classes(self, enzymes_ds):
        counts = np.bincount(enzymes_ds.labels)
        assert np.all(counts == 100)

    def test_dd_scaled_subset(self):
        ds = load_dataset("dd", num_graphs=50)
        assert len(ds) == 50
        assert ds.num_features == DD_SPEC.num_features
        assert ds.num_classes == 2

    def test_node_counts_in_spec_range(self, enzymes_ds):
        counts = [g.num_nodes for g in enzymes_ds.graphs]
        assert min(counts) >= ENZYMES_SPEC.min_nodes
        assert max(counts) <= ENZYMES_SPEC.max_nodes

    def test_graphs_are_undirected(self, enzymes_ds):
        g = enzymes_ds.graphs[0]
        pairs = set(map(tuple, g.edge_index.T))
        assert all((b, a) in pairs for a, b in pairs)

    def test_labels_are_ints(self, enzymes_ds):
        assert all(isinstance(g.y, int) for g in enzymes_ds.graphs)


class TestMNIST:
    @pytest.fixture(scope="class")
    def mnist(self):
        return mnist_superpixels(100, seed=0)

    def test_shape_statistics(self, mnist):
        stats = compute_statistics(mnist)
        assert 55 < stats.avg_nodes < 85  # paper: 70.57
        assert stats.num_features == 1
        assert stats.num_classes == 10

    def test_positions_present_and_normalised(self, mnist):
        g = mnist.graphs[0]
        assert g.pos is not None
        assert g.pos.min() >= 0.0 and g.pos.max() <= 1.0

    def test_intensity_in_unit_range(self, mnist):
        for g in mnist.graphs[:10]:
            assert g.x.min() >= 0.0 and g.x.max() <= 1.0

    def test_balanced_digits(self, mnist):
        assert np.all(np.bincount(mnist.labels) == 10)

    def test_reported_full_size(self, mnist):
        stats = compute_statistics(mnist, reported_num_graphs=70000)
        assert stats.num_graphs == 70000

    def test_minimum_size_validated(self):
        with pytest.raises(ValueError):
            mnist_superpixels(5)


class TestSplits:
    def test_stratified_folds_cover_everything(self, rng):
        labels = np.repeat(np.arange(3), 30)
        folds = stratified_folds(labels, 10, rng)
        union = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(union, np.arange(90))

    def test_stratified_folds_preserve_distribution(self, rng):
        labels = np.repeat(np.arange(3), 40)
        for fold in stratified_folds(labels, 10, rng):
            counts = np.bincount(labels[fold], minlength=3)
            assert counts.max() - counts.min() <= 2

    def test_kfold_ratio(self, rng):
        labels = np.repeat(np.arange(2), 50)
        train, val, test = kfold_splits(labels, 10, rng)[0]
        assert len(train) == 80 and len(val) == 10 and len(test) == 10

    def test_kfold_disjoint(self, rng):
        labels = np.repeat(np.arange(2), 50)
        for train, val, test in kfold_splits(labels, 10, rng):
            assert not set(train) & set(val)
            assert not set(train) & set(test)
            assert not set(val) & set(test)

    def test_kfold_test_folds_partition(self, rng):
        labels = np.repeat(np.arange(2), 50)
        tests = np.concatenate([t for _, _, t in kfold_splits(labels, 10, rng)])
        np.testing.assert_array_equal(np.sort(tests), np.arange(100))

    def test_planetoid_split_insufficient_class_raises(self, rng):
        with pytest.raises(ValueError):
            planetoid_split(np.array([0, 0, 1]), 5, 1, 1, rng)

    def test_folds_require_k_at_least_2(self, rng):
        with pytest.raises(ValueError):
            stratified_folds(np.zeros(10, int), 1, rng)


class TestRegistry:
    def test_loads_every_name(self):
        for name in ("cora", "enzymes"):
            ds = load_dataset(name)
            assert isinstance(
                ds, (NodeClassificationDataset, GraphClassificationDataset)
            )

    def test_cache_returns_same_object(self):
        a = load_dataset("enzymes", num_graphs=30)
        b = load_dataset("enzymes", num_graphs=30)
        assert a is b

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("imagenet")

    def test_case_insensitive(self):
        assert load_dataset("ENZYMES", num_graphs=30).name == "ENZYMES"


class TestContainers:
    def test_node_dataset_validates_labels(self):
        g = GraphSample(np.zeros((2, 0), np.int64), np.zeros((3, 2), np.float32), 0)
        with pytest.raises(ValueError):
            NodeClassificationDataset("x", g, 2, np.array([0]), np.array([1]), np.array([2]))

    def test_graph_dataset_rejects_empty(self):
        with pytest.raises(ValueError):
            GraphClassificationDataset("x", [], 2)

    def test_graph_dataset_subset(self, enzymes_ds):
        subset = enzymes_ds.subset(np.array([0, 5, 10]))
        assert len(subset) == 3
        assert subset[1] is enzymes_ds.graphs[5]
