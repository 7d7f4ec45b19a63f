"""Tensor creation helpers (zeros, ones, random) with explicit RNG control.

All random creation takes a ``numpy.random.Generator`` so experiments are
reproducible seed-for-seed; the trainers create one generator per run.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.tensor.tensor import Tensor

Shape = Union[int, Sequence[int]]


def _shape(shape: Shape) -> tuple:
    if isinstance(shape, int):
        return (shape,)
    return tuple(shape)


def zeros(shape: Shape) -> Tensor:
    return Tensor(np.zeros(_shape(shape), dtype=np.float32))


def ones(shape: Shape) -> Tensor:
    return Tensor(np.ones(_shape(shape), dtype=np.float32))


def full(shape: Shape, value: float) -> Tensor:
    return Tensor(np.full(_shape(shape), value, dtype=np.float32))


def randn(
    shape: Shape,
    rng: Optional[np.random.Generator] = None,
    std: float = 1.0,
) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.normal(0.0, std, size=_shape(shape)).astype(np.float32))


def uniform(
    shape: Shape,
    low: float,
    high: float,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    rng = rng or np.random.default_rng()
    return Tensor(rng.uniform(low, high, size=_shape(shape)).astype(np.float32))
