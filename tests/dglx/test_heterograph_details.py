"""DGLGraph details: frames, self-description, batching edge cases."""

import numpy as np
import pytest

from repro.dglx import DGLGraph, batch
from repro.graph import GraphSample
from repro.tensor import Tensor


def sample(n=3, seed=0):
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    return GraphSample(
        np.stack([ring, np.roll(ring, -1)]),
        rng.normal(size=(n, 2)).astype(np.float32),
        0,
    )


class TestFrames:
    def test_frame_overwrite_replaces(self):
        g = DGLGraph.from_sample(sample())
        g.ndata["h"] = Tensor(np.ones((3, 1), np.float32))
        g.ndata["h"] = Tensor(np.zeros((3, 1), np.float32))
        assert g.ndata["h"].data.sum() == 0.0

    def test_repr(self):
        g = DGLGraph.from_sample(sample(4))
        text = repr(g)
        assert "num_nodes=4" in text and "batch_size=1" in text


class TestBatchEdgeCases:
    def test_single_graph_batch(self):
        g = batch([sample(5)])
        assert g.batch_size() == 1
        assert g.num_nodes() == 5
        np.testing.assert_array_equal(g.node_offsets(), [0, 5])

    def test_batch_num_edges_tracked(self):
        g = batch([sample(3), sample(4)])
        np.testing.assert_array_equal(g.batch_num_edges(), [3, 4])

    def test_only_features_are_collated(self):
        # Node positions ride on the samples but no model reads them.
        rng = np.random.default_rng(0)
        graphs = []
        for i in range(2):
            base = sample(3, seed=i)
            graphs.append(
                GraphSample(base.edge_index, base.x, 0, pos=rng.random((3, 2)).astype(np.float32))
            )
        g = batch(graphs)
        assert list(g.ndata) == ["feat"]
        assert g.ndata["feat"].shape == (6, 2)

    def test_isolated_nodes_supported(self):
        lonely = GraphSample(np.zeros((2, 0), np.int64), np.ones((4, 2), np.float32), 0)
        g = batch([lonely, sample(3)])
        assert g.num_nodes() == 7
        # aggregation over a graph with isolated nodes stays finite
        from repro.dglx import function as fn

        g.ndata["h"] = g.ndata["feat"]
        g.update_all(fn.copy_u("h", "m"), fn.mean("m", "out"))
        assert np.all(np.isfinite(g.ndata["out"].data))
