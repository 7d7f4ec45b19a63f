"""Composite functional helpers built from primitive kernels.

These deliberately *compose* primitives rather than fuse them: the paper
calls out, e.g., that GCN's feature normalisation costs more kernel time
than the aggregation itself, which is only observable if normalisation
really launches several small kernels.
"""

from __future__ import annotations

from repro.tensor import Tensor, ops


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Project rows onto the unit ball (GraphSAGE, Eq. 2 postprocessing)."""
    squared = ops.mul(x, x)
    norm = ops.sqrt(squared.sum(axis=-1, keepdims=True))
    return ops.div(x, ops.clamp_min(norm, eps))
