"""The sum-reduction kernels under every scatter / segment / GSpMM sum.

Each is one call of the C loop ``scipy.sparse`` itself runs for a
compressed matrix times a dense block (``csc_matvecs`` / ``csr_matvecs``,
exactly as ``_matmul_multivector`` calls them), without the matrix object:
the loop accumulates in float32 in storage order, row ``i`` of the operand
after row ``i - 1``.  This module holds the only ``_sparsetools`` import, and
loads that one extension file without the ``scipy.sparse`` package around
it (:func:`_load_sparsetools`).

The C side checks nothing, so this module is the single validator of what
reaches it: a bad index must raise here, never write out of bounds in C,
and the ops built on the kernels do not repeat the scan.  Two traps of the
C thunk are held by construction and asserted in :func:`_matvecs`: it
silently *copies* an argument that is not C-contiguous or not of the dtype
its siblings fix (for the output buffer that means computing into a
temporary), and the two index arrays must share one integer dtype (int64,
normalised once by the validators).
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Optional

import numpy as np


def _load_sparsetools():
    """The ``scipy.sparse._sparsetools`` module, from its extension file alone.

    ``import scipy.sparse._sparsetools`` first runs ``scipy/__init__`` and
    ``scipy/sparse/__init__`` — some 550 modules for the two C loops used
    here.  ``find_spec("scipy")`` locates the package without importing it;
    the file is then loaded under its real name, so a later ``import
    scipy.sparse`` finds it in ``sys.modules`` and shares the one module
    object (through ``import`` / ``from`` forms, all scipy uses; the import
    system binds a submodule as an attribute of its package only when it
    loads it, so ``scipy.sparse._sparsetools`` stays unset).  Whatever goes
    wrong on the way (another scipy layout, a frozen or zipped install), the
    plain import is the answer.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    try:
        sparse = Path(find_spec("scipy").submodule_search_locations[0], "sparse")
        files = (sparse / ("_sparsetools" + suffix) for suffix in EXTENSION_SUFFIXES)
        path = str(next(file for file in files if file.is_file()))
        spec = spec_from_file_location(name, path, loader=ExtensionFileLoader(name, path))
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
    except Exception:
        import scipy.sparse._sparsetools as module
    else:
        sys.modules[name] = module
    return module


_sparsetools = _load_sparsetools()
csc_matvecs, csr_matvecs = _sparsetools.csc_matvecs, _sparsetools.csr_matvecs


def check_index(index: np.ndarray, n: int, num_rows: int) -> np.ndarray:
    """``index`` as contiguous int64, or raise unless it is ``n`` integers in ``[0, num_rows)``."""
    index = np.asarray(index)
    if index.shape != (n,):
        raise ValueError(f"index must be 1-D with length {n}, got {index.shape}")
    if index.dtype.kind not in "iu":
        raise TypeError("index must be an integer array")
    index = np.ascontiguousarray(index, dtype=np.int64)
    # One unsigned scan covers both ends: a negative int64 reads as >= 2**63.
    if n and index.view(np.uint64).max() >= num_rows:
        raise IndexError(f"index out of range for {num_rows} rows")
    return index


def check_offsets(offsets: np.ndarray, n: int) -> np.ndarray:
    """Segment offsets over ``n`` rows as contiguous int64; ``ValueError`` unless CSR-valid."""
    offsets = np.asarray(offsets)
    bad_ends = offsets.ndim != 1 or len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != n
    if bad_ends or (offsets[1:] < offsets[:-1]).any():
        raise ValueError(f"segment offsets must rise monotonically from 0 to {n}")
    if offsets.dtype.kind not in "iu":
        raise TypeError("segment offsets must be an integer array")
    return np.ascontiguousarray(offsets, dtype=np.int64)


def _matvecs(kernel, out, num_cols, indptr, indices, data, x) -> np.ndarray:
    """``kernel`` (one sparsetools loop) over validated arrays, adding into ``out``.

    ``out`` is float32 rows with the trailing shape of ``x``, returned; the
    loop never zeroes it, so a fresh result starts from ``np.zeros``.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    if out.size and len(data):
        assert indptr.dtype == indices.dtype == np.int64, "index arrays must share int64"
        assert data.dtype == np.float32 and data.flags.c_contiguous, "data must be dense float32"
        assert out.flags.c_contiguous, "a copied output buffer would lose the result"
        num_rows = out.shape[0]
        kernel(num_rows, num_cols, out.size // num_rows, indptr, indices, data, x.ravel(), out.ravel())
    return out


def scatter_add_rows(values: np.ndarray, index: np.ndarray, dim_size: int) -> np.ndarray:
    """``out[index[i]] += values[i]`` over ``dim_size`` zero-initialised rows.

    A CSC product with the 0/1 selection matrix whose column ``i`` holds its
    one entry in row ``index[i]``.
    """
    n = len(values)
    index = check_index(index, n, dim_size)
    ones, starts = np.ones(n, dtype=np.float32), np.arange(n + 1, dtype=np.int64)
    out = np.zeros((dim_size,) + values.shape[1:], dtype=np.float32)
    return _matvecs(csc_matvecs, out, n, starts, index, ones, values)


def scatter_add_rows_into(out: np.ndarray, values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """:func:`scatter_add_rows` adding into the float32 buffer ``out`` (returned).

    ``index`` must have passed :func:`check_index` for ``len(out)`` rows.  The
    loop adds row ``i`` after row ``i - 1``, so calls over consecutive slices
    of one index, in order, leave the bits of one call over the whole.
    """
    n = len(values)
    ones, starts = np.ones(n, dtype=np.float32), np.arange(n + 1, dtype=np.int64)
    return _matvecs(csc_matvecs, out, n, starts, index, ones, values)


def segment_add_rows(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """``out[s] = values[indptr[s]:indptr[s + 1]].sum(0)``; empty segments are zero.

    The CSR twin: row ``s`` of the selection matrix holds columns
    ``indptr[s]:indptr[s + 1]``.
    """
    n = len(values)
    indptr = check_offsets(indptr, n)
    ones, columns = np.ones(n, dtype=np.float32), np.arange(n, dtype=np.int64)
    out = np.zeros((len(indptr) - 1,) + values.shape[1:], dtype=np.float32)
    return _matvecs(csr_matvecs, out, n, indptr, columns, ones, values)


def csr_product(
    indptr: np.ndarray,
    indices: np.ndarray,
    data: Optional[np.ndarray],
    x: np.ndarray,
    num_rows: int,
    transpose: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``A @ x``, or ``A.T @ x``, for the CSR matrix ``A = (data, indices, indptr)``.

    ``num_rows`` is the row count of the result: the rows of ``A``, or with
    ``transpose`` its columns (which the three arrays alone do not fix).
    The transposed product reads the *same* arrays as the CSC form of
    ``A.T``, so neither direction builds a second layout.  ``data=None`` is
    the unweighted (all-ones) matrix.  Accumulation is in storage order
    either way: ``out[r] += data[k] * x[indices[k]]`` for ``k`` ascending
    within row ``r``, or ``out[indices[k]] += data[k] * x[r]`` for ``k``
    ascending overall.  ``out``, if given, is the zeroed float32 result
    buffer to add into and return: a C-contiguous view of it lets the caller
    keep the result's base in another shape.
    """
    nnz = len(indices)
    indptr = check_offsets(indptr, nnz)
    stored_rows = len(indptr) - 1
    # One row of the matrix per row of A.T's operand, or of A's result.
    if (len(x) if transpose else num_rows) != stored_rows:
        raise ValueError(
            f"matrix stores {stored_rows} rows, got x with {len(x)} rows for {num_rows} "
            f"result rows (transpose={transpose})"
        )
    indices = check_index(indices, nnz, num_rows if transpose else len(x))
    if data is None:
        data = np.ones(nnz, dtype=np.float32)
    else:
        data = np.ascontiguousarray(data, dtype=np.float32)
        if data.shape != (nnz,):
            raise ValueError(f"data must be 1-D with length {nnz}, got {data.shape}")
    if out is None:
        out = np.zeros((num_rows,) + x.shape[1:], dtype=np.float32)
    elif out.shape != (num_rows,) + x.shape[1:] or out.dtype != np.float32:
        raise ValueError(f"out must be float32 {(num_rows,) + x.shape[1:]}, got {out.dtype} {out.shape}")
    if transpose:
        return _matvecs(csc_matvecs, out, stored_rows, indptr, indices, data, x)
    return _matvecs(csr_matvecs, out, len(x), indptr, indices, data, x)
