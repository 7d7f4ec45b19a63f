"""GIN under the DGL-style framework (Eq. 3, aggregation via GSpMM)."""

from __future__ import annotations

import numpy as np

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.dglx.models.base import DGLXNet
from repro.models import ModelConfig
from repro.nn import BatchNorm1d, Linear, Module, Parameter
from repro.tensor import Tensor, ops, relu


class GINConv(Module):
    """One DGL-style GIN layer: fused-sum aggregation + MLP with BN."""

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
        self.activation = activation
        self.eps = Parameter(np.zeros(1, dtype=np.float32)) if learn_eps else None

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        g.ndata["h_tmp"] = h
        g.update_all(fn.copy_u("h_tmp", "m"), fn.sum("m", "h_agg"))
        if self.eps is not None:
            scaled = ops.mul(h, ops.add(self.eps, Tensor(np.ones(1, np.float32))))
        else:
            scaled = h
        out = ops.add(scaled, g.ndata["h_agg"])
        out = relu(self.bn(self.fc_v(out)))
        out = self.fc_w(out)
        return relu(out) if self.activation else out


class GINNet(DGLXNet):
    """Stack of :class:`GINConv` layers."""

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        activation = not (last and config.task == "node")
        return GINConv(
            d_in,
            d_out,
            rng,
            config.learn_eps_gin,
            activation=activation,
        )
