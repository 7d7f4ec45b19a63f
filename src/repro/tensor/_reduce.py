"""The sum-reduction kernels under every scatter / segment / GSpMM sum.

Both are one ``scipy.sparse`` mat-mat product with a 0/1 selection matrix —
a single C loop (``csc_matvecs`` / ``csr_matvecs``) that accumulates in
float32 in storage order, row ``i`` of ``values`` after row ``i - 1``.
scipy's ``(data, indices, indptr)`` constructors do not bounds-check, so
each kernel validates its index before the matrix is built: a bad index
must raise here, never write out of bounds in C.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def _select_sum(select: sp.spmatrix, values: np.ndarray) -> np.ndarray:
    """``select @ values`` over C-contiguous float32 rows, trailing shape restored."""
    values = np.asarray(values)
    width = int(np.prod(values.shape[1:], dtype=np.int64))
    rows = np.ascontiguousarray(values, dtype=np.float32).reshape(len(values), width)
    return (select @ rows).reshape(select.shape[:1] + values.shape[1:])


def scatter_add_rows(values: np.ndarray, index: np.ndarray, dim_size: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` over ``dim_size`` zero-initialised rows."""
    index = np.asarray(index)
    n = len(values)
    if index.shape != (n,):
        raise ValueError(f"index must be 1-D with length {n}, got {index.shape}")
    if n and (index.min() < 0 or index.max() >= dim_size):
        raise IndexError(f"index out of range for {dim_size} rows")
    select = sp.csc_matrix(
        (np.ones(n, np.float32), index, np.arange(n + 1)), shape=(dim_size, n)
    )
    return _select_sum(select, values)


def check_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    """Segment offsets over ``n`` rows as an array; ``ValueError`` unless CSR-valid."""
    offsets = np.asarray(offsets)
    bad_ends = offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != n
    if bad_ends or np.any(offsets[1:] < offsets[:-1]):
        raise ValueError(f"segment offsets must rise monotonically from 0 to {n}")
    return offsets


def segment_add_rows(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``out[s] = values[indptr[s]:indptr[s + 1]].sum(0)``; empty segments are zero."""
    n = len(values)
    indptr = check_offsets(indptr, n)
    select = sp.csr_matrix(
        (np.ones(n, np.float32), np.arange(n), indptr), shape=(len(indptr) - 1, n)
    )
    return _select_sum(select, values)
