"""PyG-style framework: Data/Batch collation, loader, message passing."""

import numpy as np
import pytest

from repro.graph import GraphSample
from repro.pygx import (
    Batch,
    Data,
    DataLoader,
    edge_softmax,
    global_mean_pool,
)
from repro.tensor import Tensor


def sample(n_nodes=3, label=0, seed=0):
    rng = np.random.default_rng(seed)
    ring = np.arange(n_nodes)
    edge_index = np.stack([ring, np.roll(ring, -1)])
    x = rng.normal(size=(n_nodes, 2)).astype(np.float32)
    return GraphSample(edge_index, x, label)


class TestBatch:
    def test_offsets_applied(self):
        b = Batch.from_data_list([Data.from_sample(sample(3)), Data.from_sample(sample(4))])
        assert b.num_nodes == 7
        assert b.num_edges == 7
        # second graph's edges offset by 3
        assert b.edge_index[:, 3:].min() >= 3

    def test_batch_vector(self):
        b = Batch.from_data_list([Data.from_sample(sample(2)), Data.from_sample(sample(3))])
        np.testing.assert_array_equal(b.batch, [0, 0, 1, 1, 1])

    def test_labels_collected(self):
        b = Batch.from_data_list(
            [Data.from_sample(sample(2, label=4)), Data.from_sample(sample(2, label=1))]
        )
        np.testing.assert_array_equal(b.y, [4, 1])

    def test_features_concatenated_exactly(self):
        g1, g2 = sample(2, seed=1), sample(3, seed=2)
        b = Batch.from_data_list([Data.from_sample(g1), Data.from_sample(g2)])
        np.testing.assert_array_equal(b.x.data, np.concatenate([g1.x, g2.x]))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            Batch.from_data_list([])

    def test_charges_host_time(self, fresh_device):
        before = fresh_device.clock.elapsed
        Batch.from_data_list([Data.from_sample(sample(3))])
        assert fresh_device.clock.elapsed > before

    def test_pos_collated_when_present(self):
        g = sample(3)
        d = Data(g.x, g.edge_index, 0, pos=np.zeros((3, 2), np.float32))
        b = Batch.from_data_list([d, d])
        assert b.pos is not None and b.pos.shape == (6, 2)


class TestDataLoader:
    def graphs(self, n=10):
        return [sample(3, label=i % 2, seed=i) for i in range(n)]

    def test_len_and_batch_sizes(self):
        loader = DataLoader(self.graphs(10), batch_size=4)
        assert len(loader) == 3
        sizes = [b.num_graphs for b in loader]
        assert sizes == [4, 4, 2]

    def test_shuffle_changes_order(self):
        rng = np.random.default_rng(0)
        loader = DataLoader(self.graphs(64), batch_size=64, shuffle=True, rng=rng)
        first = next(iter(loader)).y.copy()
        second = next(iter(loader)).y.copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_is_stable(self):
        loader = DataLoader(self.graphs(6), batch_size=6)
        a = next(iter(loader)).y
        b = next(iter(loader)).y
        np.testing.assert_array_equal(a, b)

    def test_loading_attributed_to_phase(self, fresh_device):
        loader = DataLoader(self.graphs(8), batch_size=4)
        list(loader)
        assert fresh_device.clock.phase_elapsed["data_loading"] > 0

    def test_int_seed_accepted_and_reproducible(self):
        first = DataLoader(self.graphs(16), batch_size=16, shuffle=True, rng=7)
        second = DataLoader(self.graphs(16), batch_size=16, shuffle=True, rng=7)
        np.testing.assert_array_equal(next(iter(first)).y, next(iter(second)).y)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self.graphs(4), batch_size=0)


class TestEdgeSoftmax:
    def test_sums_to_one_per_destination(self, rng):
        scores = Tensor(rng.normal(size=(6, 2)).astype(np.float32))
        dst = np.array([0, 0, 0, 1, 1, 2])
        out = edge_softmax(scores, dst, 3)
        sums = np.zeros((3, 2), np.float32)
        np.add.at(sums, dst, out.data)
        np.testing.assert_allclose(sums, np.ones((3, 2)), rtol=1e-5)

    def test_uniform_for_equal_scores(self):
        scores = Tensor(np.zeros((4, 1), np.float32))
        out = edge_softmax(scores, np.array([0, 0, 0, 0]), 1)
        np.testing.assert_allclose(out.data, np.full((4, 1), 0.25), rtol=1e-5)

    def test_stable_with_large_scores(self):
        scores = Tensor(np.array([[500.0], [500.0]], np.float32))
        out = edge_softmax(scores, np.array([0, 0]), 1)
        np.testing.assert_allclose(out.data, [[0.5], [0.5]])

    def test_differentiable(self, rng):
        scores = Tensor(rng.normal(size=(4, 1)).astype(np.float32), requires_grad=True)
        edge_softmax(scores, np.array([0, 0, 1, 1]), 2).sum().backward()
        assert scores.grad is not None
        # softmax rows sum to const 1 => gradient of the sum is ~0
        np.testing.assert_allclose(scores.grad, np.zeros((4, 1)), atol=1e-5)


class TestPooling:
    def test_mean_pool(self):
        x = Tensor(np.array([[2.0], [4.0], [9.0]], np.float32))
        out = global_mean_pool(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [9.0]])
