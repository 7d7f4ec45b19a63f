"""GIN under the PyG-style framework (Eq. 3 of the paper).

``h' = ReLU(W · ReLU(BN(V · ((1 + eps) h + sum_j h_j))))`` with sum
aggregation via scatter and a learnable (or fixed) epsilon.
"""

from __future__ import annotations

import numpy as np

from repro.models import ModelConfig
from repro.nn import BatchNorm1d, Linear, Module, Parameter
from repro.pygx.models.base import PyGXNet
from repro.tensor import Tensor, index_rows, ops, relu, scatter_sum


class GINConv(Module):
    """One GIN layer: sum aggregation + 2-layer MLP with BatchNorm."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        rng,
        learn_eps: bool,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.fc_v = Linear(d_in, d_out, rng=rng)
        self.bn = BatchNorm1d(d_out)
        self.fc_w = Linear(d_out, d_out, rng=rng)
        self.learn_eps = learn_eps
        self.activation = activation
        if learn_eps:
            self.eps = Parameter(np.zeros(1, dtype=np.float32))
        else:
            self.eps = None

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        src, dst = edge_index[0], edge_index[1]
        agg = scatter_sum(index_rows(x, src), dst, num_nodes)
        if self.eps is not None:
            scaled = ops.mul(x, ops.add(self.eps, Tensor(np.ones(1, np.float32))))
        else:
            scaled = x
        h = ops.add(scaled, agg)
        h = self.fc_v(h)
        h = relu(self.bn(h))
        h = self.fc_w(h)
        return relu(h) if self.activation else h


class GINNet(PyGXNet):
    """Stack of :class:`GINConv` layers."""

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        activation = not (last and config.task == "node")
        return GINConv(
            d_in,
            d_out,
            rng,
            learn_eps=config.learn_eps_gin,
            activation=activation,
        )
