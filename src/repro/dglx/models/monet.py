"""MoNet under the DGL-style framework (``GMMConv``).

Same Gaussian-mixture maths as the PyG-style layer, but the kernel-weighted
aggregation is lowered to a single ``u_mul_e`` GSpMM with an ``(E, K, 1)``
edge-weight tensor, as DGL's GMMConv does.
"""

from __future__ import annotations

import numpy as np

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.nn import Linear, Module, Parameter
from repro.tensor import Tensor, exp, index_rows, ops, relu, tanh
from repro.tensor.creation import randn


class GMMConv(Module):
    """One DGL-style MoNet layer with ``K`` Gaussian kernels."""

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

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        n = g.num_nodes()
        src, dst = g.edges()
        deg = Tensor(np.maximum(g.in_degrees(), 1).astype(np.float32))
        inv_sqrt = ops.pow_scalar(deg, -0.5)
        pseudo = ops.concat(
            [
                index_rows(inv_sqrt, dst).reshape(-1, 1),
                index_rows(inv_sqrt, src).reshape(-1, 1),
            ],
            axis=1,
        )
        pseudo = tanh(self.fc_pseudo(pseudo))
        diff = ops.sub(pseudo.reshape(-1, 1, self.pseudo_dim), self.mu)
        scaled = ops.mul(diff, self.inv_sigma)
        weights = exp(
            ops.mul(ops.mul(scaled, scaled).sum(axis=-1), Tensor(np.float32(-0.5)))
        )  # (E, K)

        g.ndata["h_k"] = self.fc(h).reshape(n, self.kernels, self.d_out)
        g.edata["w_k"] = weights.reshape(-1, self.kernels, 1)
        g.update_all(fn.u_mul_e("h_k", "w_k", "m"), fn.sum("m", "h_agg"))
        out = g.ndata["h_agg"].mean(axis=1)  # (N, D)
        return relu(out) if self.activation else out
