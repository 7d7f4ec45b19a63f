"""Global pooling (graph readout) for the PyG-style framework.

Built on the scatter API, as the paper notes: "In PyG, the pooling
operations are based on the scatter API of PyTorch" (Section IV-C).
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, scatter_mean


def global_mean_pool(x: Tensor, batch: np.ndarray, num_graphs: int) -> Tensor:
    """Average node features per graph."""
    return scatter_mean(x, batch, num_graphs)

