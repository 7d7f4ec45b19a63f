"""Data object details and loader coverage guarantees."""

import numpy as np
import pytest

from repro.graph import GraphSample
from repro.pygx import Batch, Data, DataLoader


def sample(n=3, label=0, with_pos=False, seed=0):
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    pos = rng.random((n, 2)).astype(np.float32) if with_pos else None
    return GraphSample(
        np.stack([ring, np.roll(ring, -1)]),
        rng.normal(size=(n, 2)).astype(np.float32),
        label,
        pos=pos,
    )


class TestData:
    def test_from_sample_copies_fields(self):
        g = sample(4, label=2, with_pos=True)
        d = Data.from_sample(g)
        assert d.num_nodes == 4
        assert d.num_edges == 4
        assert d.y == 2
        assert d.pos is not None

    def test_pos_defaults_none(self):
        assert Data.from_sample(sample()).pos is None

    def test_dtype_normalisation(self):
        d = Data(np.ones((2, 2), np.float64), np.zeros((2, 0), np.int32), 0)
        assert d.x.dtype == np.float32
        assert d.edge_index.dtype == np.int64


class TestBatchPos:
    def test_pos_none_if_any_graph_missing(self):
        with_pos = Data.from_sample(sample(with_pos=True))
        without = Data.from_sample(sample())
        batch = Batch.from_data_list([with_pos, without])
        assert batch.pos is None

    def test_pos_present_when_all_have_it(self):
        graphs = [Data.from_sample(sample(with_pos=True, seed=i)) for i in range(3)]
        batch = Batch.from_data_list(graphs)
        assert batch.pos is not None
        assert batch.pos.shape == (9, 2)


class TestLoaderCoverage:
    def test_every_graph_seen_exactly_once(self):
        graphs = [sample(label=i, seed=i) for i in range(17)]
        loader = DataLoader(graphs, batch_size=5, shuffle=True, rng=np.random.default_rng(0))
        seen = np.concatenate([b.y for b in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(17))
