"""GAT under the PyG-style framework.

Multi-head attention with the additive mechanism of Velickovic et al.:
``e_ij = LeakyReLU(a_src . z_i + a_dst . z_j)`` normalised with an edge
softmax composed from scatter primitives (see :mod:`repro.pygx.softmax`),
then attention-weighted scatter-sum aggregation.  Heads are concatenated,
except in the final node-classification layer which uses one head emitting
class logits (the original GAT design).
"""

from __future__ import annotations

import numpy as np

from repro.nn import Linear, Module, Parameter
from repro.pygx.softmax import edge_softmax
from repro.tensor import Tensor, elu, gather_mul_sum, index_rows, leaky_relu, ops
from repro.tensor.creation import randn


class GATConv(Module):
    """One multi-head GAT layer; output width is ``heads * head_dim``."""

    def __init__(
        self,
        d_in: int,
        head_dim: int,
        heads: int,
        rng,
        concat_heads: bool = True,
    ) -> None:
        super().__init__()
        self.heads = heads
        self.head_dim = head_dim
        self.concat_heads = concat_heads
        self.fc = Linear(d_in, heads * head_dim, bias=False, rng=rng)
        self.attn_src = Parameter(randn((1, heads, head_dim), rng=rng, std=0.1))
        self.attn_dst = Parameter(randn((1, heads, head_dim), rng=rng, std=0.1))

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        src, dst = edge_index[0], edge_index[1]
        z = self.fc(x).reshape(num_nodes, self.heads, self.head_dim)
        # Node-level attention halves, gathered per edge and added.
        alpha_src = ops.mul(z, self.attn_src).sum(axis=-1)  # (N, H)
        alpha_dst = ops.mul(z, self.attn_dst).sum(axis=-1)
        logits = leaky_relu(
            ops.add(index_rows(alpha_src, src), index_rows(alpha_dst, dst)),
            negative_slope=0.2,
        )
        attention = edge_softmax(logits, dst, num_nodes)  # (E, H)
        # sum_j alpha_ij x_j.  ``messages`` is the charge of PyG's (E, H, D)
        # message tensor, held while this layer runs; the host never builds it.
        out, messages = gather_mul_sum(z, src, attention, dst, num_nodes)  # (N, H, D)
        if self.concat_heads:
            return elu(out.reshape(num_nodes, self.heads * self.head_dim))
        return out.mean(axis=1)  # average heads: final layer logits
