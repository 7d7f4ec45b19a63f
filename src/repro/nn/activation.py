"""Activation layers (module forms of the functional ops)."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor, ops


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)
