"""MoNet (Gaussian Mixture Model conv) under the PyG-style framework.

Degree-based pseudo-coordinates ``u_ij = (deg_i^-1/2, deg_j^-1/2)`` are
projected through a small FC + tanh, then scored against ``K`` learnable
Gaussian kernels; each kernel weights a separate linear transform of the
source features before scatter-sum aggregation (the Dwivedi et al. setup
the paper follows: K=2 kernels, pseudo dim 2).
"""

from __future__ import annotations

import numpy as np

from repro.models import ModelConfig
from repro.nn import Linear, Module, Parameter
from repro.pygx.models.base import PyGXNet
from repro.tensor import Tensor, exp, index_rows, ops, relu, scatter_sum, tanh
from repro.tensor.creation import randn


class GMMConv(Module):
    """One MoNet layer with ``K`` Gaussian kernels over pseudo-coordinates."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        kernels: int,
        pseudo_dim: int,
        rng,
        activation: bool = True,
    ) -> None:
        super().__init__()
        self.kernels = kernels
        self.pseudo_dim = pseudo_dim
        self.d_out = d_out
        self.activation = activation
        self.fc = Linear(d_in, kernels * d_out, bias=False, rng=rng)
        self.fc_pseudo = Linear(2, pseudo_dim, rng=rng)
        self.mu = Parameter(randn((kernels, pseudo_dim), rng=rng, std=0.1))
        self.inv_sigma = Parameter(np.ones((kernels, pseudo_dim), dtype=np.float32))

    def forward(self, x: Tensor, edge_index: np.ndarray, num_nodes: int) -> Tensor:
        src, dst = edge_index[0], edge_index[1]
        deg = Tensor(np.bincount(dst, minlength=num_nodes).astype(np.float32))
        inv_sqrt = ops.pow_scalar(ops.clamp_min(deg, 1.0), -0.5)
        pseudo = ops.concat(
            [
                index_rows(inv_sqrt, dst).reshape(-1, 1),
                index_rows(inv_sqrt, src).reshape(-1, 1),
            ],
            axis=1,
        )
        pseudo = tanh(self.fc_pseudo(pseudo))  # (E, pseudo_dim)

        # Gaussian kernel weights: (E, K)
        diff = ops.sub(pseudo.reshape(-1, 1, self.pseudo_dim), self.mu)
        scaled = ops.mul(diff, self.inv_sigma)
        weights = exp(ops.mul(ops.mul(scaled, scaled).sum(axis=-1), Tensor(np.float32(-0.5))))

        h = self.fc(x).reshape(num_nodes, self.kernels, self.d_out)
        h_j = index_rows(h, src)  # (E, K, D)
        messages = ops.mul(h_j, weights.reshape(-1, self.kernels, 1))
        out = scatter_sum(messages, dst, num_nodes).mean(axis=1)  # (N, D)
        return relu(out) if self.activation else out


class MoNetNet(PyGXNet):
    """Stack of :class:`GMMConv` layers."""

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        activation = not (last and config.task == "node")
        return GMMConv(
            d_in, d_out, config.kernels, config.pseudo_dim, rng, activation=activation
        )
