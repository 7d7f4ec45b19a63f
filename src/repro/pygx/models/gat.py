"""GAT under the PyG-style framework.

Multi-head attention with the additive mechanism of Velickovic et al.:
``e_ij = LeakyReLU(a_src . z_i + a_dst . z_j)`` normalised with an edge
softmax composed from scatter primitives (see :mod:`repro.pygx.softmax`),
then attention-weighted scatter-sum aggregation.  Heads are concatenated,
except in the final node-classification layer which uses one head emitting
class logits (the original GAT design).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.models import ModelConfig
from repro.nn import Linear, Module, Parameter
from repro.pygx.models.base import PyGXNet
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


class GATNet(PyGXNet):
    """Stack of :class:`GATConv` layers (Table II/III head layout)."""

    def layer_dims(self, config: ModelConfig) -> List[Tuple[int, int]]:
        dims: List[Tuple[int, int]] = []
        width_in = config.in_dim
        for i in range(config.n_layers):
            last = i == config.n_layers - 1
            if config.task == "node":
                # hidden is the total width; the final layer is single-head.
                width_out = config.n_classes if last else config.hidden
            else:
                # hidden is per-head width; heads concatenate to out_dim.
                width_out = config.out_dim if last else config.hidden * config.n_heads
            dims.append((width_in, width_out))
            width_in = width_out
        return dims

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        if config.task == "node" and last:
            return GATConv(d_in, d_out, heads=1, rng=rng, concat_heads=False)
        heads = config.n_heads
        head_dim = max(d_out // heads, 1)
        return GATConv(d_in, head_dim, heads, rng=rng)
