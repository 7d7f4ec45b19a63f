"""Loss functions."""

from __future__ import annotations

import numpy as np

from repro.device import current_device
from repro.tensor import Tensor, log_softmax
from repro.tensor.ops_nn import nll_loss


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean softmax cross entropy between ``(N, C)`` logits and integer targets.

    Composed of a ``log_softmax`` kernel and an ``nll_loss`` kernel, matching
    PyTorch's ``F.cross_entropy`` lowering.
    """
    return nll_loss(log_softmax(logits, axis=-1), targets)


def accuracy(logits: Tensor, targets: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the target."""
    targets = np.asarray(targets)
    if len(targets) == 0:
        return 0.0
    device = current_device()
    device.host(device.host_costs.metric_per_sample * len(targets))
    pred = logits.data.argmax(axis=-1)
    return float((pred == targets).mean())
