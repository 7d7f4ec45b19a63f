"""Dense GCN: spectral-style ``A_hat @ X @ W`` with dense matmuls."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.models import Lowering, ModelConfig, Net
from repro.nn import Linear, Module
from repro.tensor import Tensor, relu


class DenseGCNConv(Module):
    """One GCN layer as two dense matmuls: ``relu(A_hat @ (X W))``."""

    def __init__(self, d_in: int, d_out: int, rng, activation: bool = True) -> None:
        super().__init__()
        self.linear = Linear(d_in, d_out, rng=rng)
        self.activation = activation

    def forward(self, adj: Tensor, x: Tensor) -> Tensor:
        h = self.linear(x)
        out = adj @ h  # (N, N) @ (N, F): the quadratic step
        return relu(out) if self.activation else out


_LOWERING = Lowering(
    convs={"gcn": DenseGCNConv},
    features=lambda batch: batch.x,
    run=lambda conv, batch, x: conv(batch.adj, x),
    readout=lambda batch, x: batch.pool @ x,  # dense mean readout
    scope_prefix="Dense",
)


def DenseGCNNet(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> Net:
    """GCN stack on dense adjacency; mean readout via the pooling matmul."""
    if config.model != "gcn":
        raise ValueError("the dense baseline implements GCN only")
    return Net(config, _LOWERING, rng)
