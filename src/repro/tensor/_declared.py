"""Declared-sparse arrays: the CSR of a read-only 2-D float32 array, kept beside it.

A bag-of-words feature matrix is ~96 % zeros, and the dense kernels a GPU
framework runs on it (input dropout, the first projection) are what the
simulated device is charged.  The host need not pay for the zeros too:
:func:`declare_sparse` builds the array's CSR once, and ``ops.dropout``,
``ops.mul`` (row scaling) and ``ops.matmul`` compute on it when their input
resolves to declared rows (:func:`sparse_rows`), while charging exactly the
dense kernels (docs/cost_model.md, "Declared-sparse inputs").  What
dropout and row scaling return for such an input is a :class:`DeclaredTensor`:
its CSR and shape, with the dense array built only if something reads it.

The registry is weak: an entry lives as long as its array.  Declaring makes
the array read-only, so the CSR cannot go stale under it.
"""

from __future__ import annotations

import math
import weakref
from typing import Dict, Optional, Tuple

import numpy as np

from repro._random import PCG64Jumps
from repro.device import current_device
from repro.tensor.tensor import Tensor


class SparseRows:
    """Row-major CSR of a 2-D float32 array.

    Every element whose bits are not those of ``+0.0`` is stored (``-0.0``,
    inf and NaN included), so the array is exactly its stored entries over a
    ``+0.0`` background.  ``positions`` are the stored flat indices,
    ascending; ``jumps`` are the ``PCG64`` jump tables of the array's shape
    (``repro._random.random_at``), shared by every array of that lineage.
    """

    __slots__ = ("indptr", "indices", "data", "positions", "jumps")

    def __init__(self, indptr, indices, data, positions, jumps) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data
        self.positions, self.jumps = positions, jumps

    def select(self, mask: np.ndarray, data: np.ndarray) -> "SparseRows":
        """The entries where ``mask`` holds, with new values ``data[mask]``."""
        if mask.all():
            return SparseRows(self.indptr, self.indices, data, self.positions, self.jumps)
        chosen = np.flatnonzero(mask)
        # A row starting at entry ``k`` starts at the count of chosen entries before ``k``.
        return SparseRows(
            np.searchsorted(chosen, self.indptr),
            self.indices.take(chosen),
            data.take(chosen),
            self.positions.take(chosen),
            self.jumps,
        )


class _Entry(weakref.ref):
    """A declared array's registry slot; dropped when the array is collected."""

    __slots__ = ("rows",)


_DECLARED: Dict[int, _Entry] = {}


def declare_sparse(x: np.ndarray) -> None:
    """Declare ``x`` sparse: build its CSR once and make ``x`` read-only.

    ``x`` must be a 2-D float32 array (``TypeError`` / ``ValueError``
    otherwise) that owns its memory (``ValueError``), so no writable base
    can change it behind the registry.
    """
    if not isinstance(x, np.ndarray) or x.dtype != np.float32:
        raise TypeError(f"only a float32 array can be declared sparse, got {getattr(x, 'dtype', type(x))}")
    if x.ndim != 2:
        raise ValueError(f"only a 2-D array can be declared sparse, got shape {x.shape}")
    if x.base is not None:
        raise ValueError("only an array that owns its memory can be declared sparse")
    n_rows, n_cols = x.shape
    positions = np.flatnonzero(x.view(np.uint32))
    # Row ``r`` starts at the first entry at or after its first element.
    indptr = np.searchsorted(positions, np.arange(n_rows + 1) * n_cols)
    indices = positions % max(n_cols, 1)
    jumps = PCG64Jumps(n_rows, n_cols)
    _register(x, SparseRows(indptr, indices, x.reshape(-1)[positions], positions, jumps))


def _register(x: np.ndarray, rows: SparseRows) -> None:
    """Hold ``rows`` as the CSR of ``x`` (a fresh array) while ``x`` lives."""
    x.flags.writeable = False
    key = id(x)
    entry = _Entry(x, lambda _, key=key: _DECLARED.pop(key, None))
    entry.rows = rows
    _DECLARED[key] = entry


def sparse_rows(array: np.ndarray) -> Optional[SparseRows]:
    """The CSR of a declared array, or of a full-shape view of one; else ``None``."""
    entry = _DECLARED.get(id(array))
    if entry is None:
        base = array.base
        if base is None:
            return None
        entry = _DECLARED.get(id(base))
        # A view of an owner with the owner's shape and strides starts where it does.
        if entry is None or (array.shape, array.strides, array.dtype) != (base.shape, base.strides, base.dtype):
            return None
    return entry.rows


class DeclaredTensor(Tensor):
    """An op's output held as its CSR: the dense array is built on first read.

    ``ops.dropout`` and ``ops.mul``'s row scaling return one for a declared
    input, and ``ops.dropout`` / ``ops.mul`` / ``ops.matmul`` compute on
    :attr:`rows` directly.  ``shape``, ``ndim``, ``len``, ``size`` and
    ``nbytes`` come from the stored shape.  Reading :attr:`data` builds the
    dense array once (the stored entries over ``+0.0``), declares it with
    :attr:`rows` and keeps it.

    The pool is charged the dense bytes from creation until the last holder
    is gone, as for the dense output it stands for: the object is tracked
    as itself, and the array a read builds is one more holder of its
    :attr:`charge`.
    """

    __slots__ = ("rows", "_shape", "charge", "_dense")

    def __init__(self, rows: SparseRows, shape: Tuple[int, ...]) -> None:
        self.rows = rows
        self._shape = shape
        self._dense: Optional[np.ndarray] = None
        self.requires_grad = False
        self.grad = None
        self._node = None
        self._post_accumulate_hooks = None
        self.charge = current_device().track(self)

    @property
    def data(self) -> np.ndarray:
        dense = self._dense
        if dense is None:
            rows = self.rows
            dense = np.zeros(self._shape, dtype=np.float32)
            dense.reshape(-1)[rows.positions] = rows.data
            _register(dense, rows)
            self.charge.pool().share(dense, self.charge)
            self._dense = dense
        return dense

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    @property
    def size(self) -> int:
        return math.prod(self._shape)

    @property
    def nbytes(self) -> int:
        return 4 * math.prod(self._shape)

    def __len__(self) -> int:
        return self._shape[0]
