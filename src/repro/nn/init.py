"""Weight initialisation schemes.

The paper keeps initialisation identical across frameworks (Section III-C);
both model packs here therefore share these functions.  All take an explicit
``numpy.random.Generator`` for reproducibility.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def glorot_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for a (fan_in, fan_out) matrix."""
    fan_in, fan_out = shape[0], shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
