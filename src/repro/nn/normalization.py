"""Normalisation layers."""

from __future__ import annotations

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor
from repro.tensor.ops_nn import batch_norm


class BatchNorm1d(Module):
    """Batch normalisation over a 2-D ``(N, F)`` input.

    Used by GIN (Eq. 3) and GatedGCN in both frameworks.  Running statistics
    follow PyTorch's semantics: biased batch variance normalises the batch,
    unbiased variance updates the running buffer.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(init.ones(num_features))
        self.beta = Parameter(init.zeros(num_features))
        self.register_buffer("running_mean", init.zeros(num_features))
        self.register_buffer("running_var", init.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return batch_norm(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"
