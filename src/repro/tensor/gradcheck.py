"""Numerical gradient checking (public counterpart of torch.autograd.gradcheck).

Compares reverse-mode gradients against central differences.  Inputs are
float32, so tolerances are looser than double-precision gradcheck; the
utility is meant for validating new ops and model layers, and is what the
engine's own test suite uses.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.tensor.tensor import Tensor


class GradcheckError(AssertionError):
    """Raised when an analytic gradient disagrees with central differences."""


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-2,
    atol: float = 2e-2,
    rtol: float = 2e-2,
    max_coords: int = 8,
    rng: Optional[np.random.Generator] = None,
) -> bool:
    """Check ``d(sum fn(*inputs)) / d(inputs)`` against central differences.

    ``fn`` maps Tensors to one Tensor; ``inputs`` are numpy arrays (float32
    recommended).  At most ``max_coords`` randomly chosen coordinates per
    input are perturbed.  Returns True on success, raises
    :class:`GradcheckError` with coordinates and values on failure.
    """
    rng = rng or np.random.default_rng(0)
    arrays = [np.asarray(a, dtype=np.float32) for a in inputs]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.sum().backward()

    def evaluate(candidate: Sequence[np.ndarray]) -> float:
        return fn(*[Tensor(a) for a in candidate]).sum().item()

    for which, (tensor, base) in enumerate(zip(tensors, arrays)):
        if tensor.grad is None:
            raise GradcheckError(f"input {which} received no gradient")
        flat = base.reshape(-1)
        n_coords = min(max_coords, flat.size)
        coords = rng.choice(flat.size, size=n_coords, replace=False)
        for idx in coords:
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[which].reshape(-1)[idx] += eps
            minus[which].reshape(-1)[idx] -= eps
            numeric = (evaluate(plus) - evaluate(minus)) / (2.0 * eps)
            analytic = float(tensor.grad.reshape(-1)[idx])
            if not np.isclose(analytic, numeric, atol=atol, rtol=rtol):
                raise GradcheckError(
                    f"input {which} coord {idx}: analytic {analytic:.6f} "
                    f"vs numeric {numeric:.6f}"
                )
    return True
