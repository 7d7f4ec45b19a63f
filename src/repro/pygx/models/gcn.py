"""GCN under the PyG-style framework.

Implements Eq. (1) of the paper with PyG's ``GCNConv`` lowering: add self
loops, compute the symmetric degree normalisation per edge with a handful of
small kernels, apply the weight first (features shrink before the gather),
then gather -> weighted message -> scatter-sum.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import Linear, Module
from repro.tensor import Tensor, index_rows, ops, relu, scatter_sum


class GCNConv(Module):
    """One PyG-style GCN layer with symmetric normalisation."""

    #: Signals the pack's conv call (``repro.pygx.models``) that this conv
    #: accepts the optional ``true_in_degrees`` of a sampled batch
    #: (full-graph normalisation).
    full_graph_norm_capable = True

    def __init__(self, d_in: int, d_out: int, rng, activation: bool = True) -> None:
        super().__init__()
        self.linear = Linear(d_in, d_out, rng=rng)
        self.activation = activation

    def forward(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        num_nodes: int,
        true_in_degrees: Optional[np.ndarray] = None,
    ) -> Tensor:
        loops = np.arange(num_nodes, dtype=np.int64)
        src = np.concatenate([edge_index[0], loops])
        dst = np.concatenate([edge_index[1], loops])
        deg = Tensor(np.bincount(dst, minlength=num_nodes).astype(np.float32))
        if true_in_degrees is not None:
            # Sampled subgraph with full-graph degrees: Horvitz-Thompson
            # estimate of the full-graph layer — source side normalised by
            # the *true* degree, destination side rescaled by true/sampled
            # so the truncated sum is unbiased for the full aggregation.
            # Identical to the plain path when the graph is complete, so
            # the trained weights serve unchanged at full-graph inference.
            n = Tensor((true_in_degrees + 1).astype(np.float32))
            inv_sqrt_n = ops.pow_scalar(n, -0.5)
            scale = ops.div(ops.pow_scalar(n, 0.5), ops.clamp_min(deg, 1.0))
            norm = ops.mul(index_rows(inv_sqrt_n, src), index_rows(scale, dst))
        else:
            inv_sqrt = ops.pow_scalar(ops.clamp_min(deg, 1.0), -0.5)
            norm = ops.mul(index_rows(inv_sqrt, src), index_rows(inv_sqrt, dst))

        h = self.linear(x)
        h_j = index_rows(h, src)
        messages = ops.mul(h_j, norm.reshape(-1, 1))
        out = scatter_sum(messages, dst, num_nodes)
        return relu(out) if self.activation else out
