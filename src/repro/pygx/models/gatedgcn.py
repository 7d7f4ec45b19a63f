"""GatedGCN under the PyG-style framework (no explicit edge features).

The anisotropic update of Eq. (4) with edge gates:

``h_i' = h_i + ReLU(BN(U h_i + (sum_j eta_ij * V h_j) / (sum_j eta_ij)))``
with ``eta_ij = sigmoid(A h_i + B h_j)``.

Crucially — and this is the paper's observation 3 in Section IV-A — the PyG
implementation keeps **no explicit edge feature state**: gates are computed
on the fly from node features and never written back through a fully
connected layer.  The DGL-style implementation does maintain and update
edge features (see :mod:`repro.dglx.models.gatedgcn`), which roughly
doubles its cost.
"""

from __future__ import annotations

import numpy as np

from repro.models import ModelConfig
from repro.nn import BatchNorm1d, Linear, Module
from repro.pygx.models.base import PyGXNet
from repro.tensor import Tensor, index_rows, ops, relu, scatter_sum, sigmoid


class GatedGCNConv(Module):
    """One GatedGCN layer without explicit edge features."""

    def __init__(
        self, d_in: int, d_out: int, rng, activation: bool = True
    ) -> None:
        super().__init__()
        self.activation = activation
        self.fc_u = Linear(d_in, d_out, rng=rng)
        self.fc_v = Linear(d_in, d_out, rng=rng)
        self.fc_a = Linear(d_in, d_out, rng=rng)
        self.fc_b = Linear(d_in, d_out, rng=rng)
        self.bn = BatchNorm1d(d_out)
        self.residual = d_in == d_out

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        src, dst = edge_index[0], edge_index[1]
        uh = self.fc_u(x)
        vh = self.fc_v(x)
        ah = self.fc_a(x)
        bh = self.fc_b(x)
        gates = sigmoid(ops.add(index_rows(ah, dst), index_rows(bh, src)))  # (E, D)
        weighted = ops.mul(gates, index_rows(vh, src))
        numer = scatter_sum(weighted, dst, num_nodes)
        denom = ops.clamp_min(scatter_sum(gates, dst, num_nodes), 1e-6)
        h = ops.add(uh, ops.div(numer, denom))
        if not self.activation:  # final node-classification layer: raw logits
            return h
        h = relu(self.bn(h))
        if self.residual:
            h = ops.add(x, h)
        return h


class GatedGCNNet(PyGXNet):
    """Stack of :class:`GatedGCNConv` layers with residual connections."""

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        activation = not (last and config.task == "node")
        return GatedGCNConv(d_in, d_out, rng, activation=activation)
