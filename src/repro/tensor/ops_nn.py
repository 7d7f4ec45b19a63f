"""Neural-network specific fused kernels: batch norm and NLL loss.

PyTorch executes batch normalisation and the NLL loss each as a single cuDNN
/ ATen kernel, so we model them the same way instead of composing them from
a dozen elementwise launches — op counts are a first-class observable in
this reproduction (they drive the simulated launch overhead).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor, launch_backward, make_op

_F32 = 4


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over the first axis of a 2-D input.

    In training mode the batch statistics are used and the running buffers
    are updated in place; in eval mode the running buffers are used.
    """
    if x.ndim != 2:
        raise ValueError(f"batch_norm expects a 2-D input, got shape {x.shape}")
    n = len(x)
    if training:
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        if n > 1:
            unbiased = var * n / (n - 1)
        else:
            unbiased = var
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mean = running_mean
        var = running_var
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x.data - mean) * inv_std
    gamma_data = gamma.data
    out = (gamma_data * x_hat + beta.data).astype(np.float32)
    flops = 8.0 * x.size
    nbytes = float(_F32 * 3 * x.size)

    def backward(grad: np.ndarray):
        launch_backward("batch_norm_backward", 10.0 * grad.size, _F32 * 4.0 * grad.size)
        g_gamma = (grad * x_hat).sum(axis=0).astype(np.float32)
        g_beta = grad.sum(axis=0).astype(np.float32)
        if training:
            gx = (
                gamma_data
                * inv_std
                / n
                * (n * grad - g_beta - x_hat * g_gamma)
            ).astype(np.float32)
        else:
            gx = (grad * gamma_data * inv_std).astype(np.float32)
        return gx, g_gamma, g_beta

    return make_op("batch_norm", out, (x, gamma, beta), backward, flops, nbytes)


def nll_loss(log_probs: Tensor, targets: np.ndarray, reduction: str = "mean") -> Tensor:
    """Negative log-likelihood of integer ``targets`` under ``log_probs``.

    ``log_probs`` has shape ``(N, C)`` (output of ``log_softmax``);
    ``targets`` is an ``(N,)`` integer array.
    """
    targets = np.asarray(targets)
    if log_probs.ndim != 2:
        raise ValueError("nll_loss expects (N, C) log-probabilities")
    n, c = log_probs.shape
    if targets.shape != (n,):
        raise ValueError(f"targets must have shape ({n},), got {targets.shape}")
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    picked = log_probs.data[np.arange(n), targets]
    value = -picked.sum()
    if reduction == "mean":
        value /= n
    out = np.float32(value)
    flops = float(n)
    nbytes = float(_F32 * 2 * n)

    def backward(grad: np.ndarray):
        launch_backward("nll_loss_backward", float(n), _F32 * 2.0 * n)
        gx = np.zeros((n, c), dtype=np.float32)
        scale = float(grad) * (1.0 / n if reduction == "mean" else 1.0)
        gx[np.arange(n), targets] = -scale
        return (gx,)

    return make_op("nll_loss", out, (log_probs,), backward, flops, nbytes)
