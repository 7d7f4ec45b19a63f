"""Gradient-mode switches for the tensor engine.

Mirrors ``torch.no_grad``: evaluation passes in the trainers run under
:func:`no_grad` so no autograd graph (and none of its activation memory) is
retained, which matters for the peak-memory results of Fig. 4.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_GRAD_ENABLED: bool = True


def grad_enabled() -> bool:
    """True when operations should record an autograd graph."""
    return _GRAD_ENABLED


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable autograd graph recording inside the block."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous
