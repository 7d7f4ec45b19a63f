"""GraphSAGE (mean-pool aggregator) under the PyG-style framework.

Eq. (2) of the paper: transform neighbours with a pooling FC + ReLU,
mean-aggregate, concatenate with the centre node, apply the layer weight,
then project the embedding onto the unit ball before the next layer.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Linear, Module
from repro.nn.functional import l2_normalize
from repro.tensor import Tensor, concat, index_rows, relu, scatter_mean


class SAGEConv(Module):
    """One GraphSAGE layer with the mean-pool aggregator."""

    def __init__(self, d_in: int, d_out: int, rng, activation: bool = True) -> None:
        super().__init__()
        self.fc_pool = Linear(d_in, d_out, rng=rng)
        self.fc = Linear(d_in + d_out, d_out, rng=rng)
        self.activation = activation

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        src, dst = edge_index[0], edge_index[1]
        pooled = relu(self.fc_pool(x))
        gathered = index_rows(pooled, src)
        agg = scatter_mean(gathered, dst, num_nodes)
        h = self.fc(concat([x, agg], axis=1))
        if not self.activation:  # final node-classification layer: raw logits
            return h
        return l2_normalize(relu(h))
