"""GCN under the DGL-style framework (``GraphConv`` with ``norm='both'``).

The key contrast with the PyG-style lowering (Section IV-C): DGL's
GraphConv normalises the node features by ``deg^-1/2`` *before* the fused
GSpMM aggregation and again *after* it — "the node features are normalized
before and after updating by the key operations, which mainly results in
the differences in GCN training time between DGL and PyG".
"""

from __future__ import annotations

import numpy as np

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.nn import Linear, Module
from repro.tensor import Tensor, ops, relu


class GraphConv(Module):
    """One DGL-style GCN layer: norm -> weight -> GSpMM -> norm -> bias."""

    def __init__(self, d_in: int, d_out: int, rng, activation: bool = True) -> None:
        super().__init__()
        self.linear = Linear(d_in, d_out, rng=rng)
        self.activation = activation

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        # Symmetric normalisation is applied to node features on both sides
        # of the aggregation (extra elementwise kernels vs the PyG lowering).
        deg = Tensor(np.maximum(g.in_degrees(), 1).astype(np.float32).reshape(-1, 1))
        if "true_in_deg" in g.ndata:
            # Sampled subgraph with full-graph degrees attached: use the
            # Horvitz-Thompson estimate of the full-graph aggregation —
            # pre-norm by the *true* degree, then rescale the truncated sum
            # by true/sampled so its expectation matches the full-graph
            # layer.  Reduces exactly to the plain path when the graph is
            # complete (true == sampled), so models trained this way serve
            # unchanged under full-graph partitioned inference.
            true = g.ndata["true_in_deg"]
            h = ops.mul(h, ops.pow_scalar(true, -0.5))
            h = self.linear(h)
            g.ndata["h_tmp"] = h
            g.update_all(fn.copy_u("h_tmp", "m"), fn.sum("m", "h_agg"))
            post = ops.div(ops.pow_scalar(true, 0.5), deg)
            out = ops.mul(g.ndata["h_agg"], post)
            return relu(out) if self.activation else out
        norm = ops.pow_scalar(deg, -0.5)
        h = ops.mul(h, norm)
        h = self.linear(h)
        g.ndata["h_tmp"] = h
        g.update_all(fn.copy_u("h_tmp", "m"), fn.sum("m", "h_agg"))
        out = ops.mul(g.ndata["h_agg"], norm)
        return relu(out) if self.activation else out
