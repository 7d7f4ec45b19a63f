"""Gather / scatter / segment operations.

These are the kernels GNN frameworks are built from.  The PyG-style framework
(:mod:`repro.pygx`) aggregates messages with *scatter* ops keyed by an index
vector (PyTorch's ``scatter``/``index_select`` family); the DGL-style
framework (:mod:`repro.dglx`) pools node features per graph with *segment*
reductions over contiguous ranges (DGL's segment-reduce operator).  The paper
explicitly contrasts these two pooling paths in Section IV-C.
"""

from __future__ import annotations

import numpy as np

from repro.tensor._reduce import check_index, check_offsets, scatter_add_rows
from repro.tensor.tensor import Tensor, launch_backward, make_op

_F32 = 4


# ----------------------------------------------------------------------
# gather
# ----------------------------------------------------------------------
def index_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Select rows ``x[index]`` (PyTorch ``index_select`` on dim 0).

    Used to materialise per-edge source/destination features.
    """
    # A gather reads through the index before any kernel sees it (and numpy
    # would wrap a negative one), so it asks the kernels' validator itself.
    num_rows = len(x)
    index = check_index(index, len(index), num_rows)
    out = x.data[index]
    flops = 0.0
    nbytes = float(_F32 * 2 * out.size)

    def backward(grad: np.ndarray):
        launch_backward("gather_backward_scatter_add", float(grad.size), _F32 * 3.0 * grad.size)
        return (scatter_add_rows(grad, index, num_rows),)

    return make_op("gather", out, (x,), backward, flops, nbytes)


# ----------------------------------------------------------------------
# scatter reductions (PyG style)
# ----------------------------------------------------------------------
def scatter_sum(src: Tensor, index: np.ndarray, dim_size: int) -> Tensor:
    """Sum rows of ``src`` into ``dim_size`` bins given by ``index``."""
    out = scatter_add_rows(src.data, index, dim_size)  # validates ``index``
    size = src.data.size
    flops = float(size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("scatter_sum_backward_gather", 0.0, _F32 * 2.0 * size)
        return (grad[index],)

    return make_op("scatter_sum", out, (src,), backward, flops, nbytes)


def scatter_mean(src: Tensor, index: np.ndarray, dim_size: int) -> Tensor:
    """Mean-reduce rows of ``src`` into bins; empty bins yield zero."""
    out = scatter_add_rows(src.data, index, dim_size)  # validates ``index``
    count = np.bincount(index, minlength=dim_size).astype(np.float32)
    safe = np.maximum(count, 1.0)
    size, trailing = src.data.size, (1,) * (src.data.ndim - 1)
    out = out / safe.reshape((dim_size,) + trailing)
    flops = float(size + out.size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("scatter_mean_backward", float(grad.size), _F32 * 2.0 * size)
        scale = (1.0 / safe)[index].reshape((len(index),) + trailing)
        return (grad[index] * scale,)

    return make_op("scatter_mean", out, (src,), backward, flops, nbytes)


def _max_reduce(src: Tensor, out: np.ndarray, index: np.ndarray, kernel: str, bw: str) -> Tensor:
    """Finish a max reduction from its raw per-bin maxima (``-inf`` where empty).

    Empty bins yield zero.  The backward pass routes the gradient to the
    maximal entries; exact ties share it equally (a valid subgradient).
    """
    empty = ~np.isfinite(out)
    out = np.where(empty, 0.0, out).astype(np.float32, copy=False)
    winners = (src.data == out[index]) & ~empty[index]
    tie_count = np.maximum(scatter_add_rows(winners, index, len(out)), 1.0)
    size = src.data.size

    def backward(grad: np.ndarray):
        launch_backward(bw, float(size), _F32 * 3.0 * size)
        return (winners * grad[index] / tie_count[index],)

    nbytes = float(_F32 * (size + out.size))
    return make_op(kernel, out, (src,), backward, float(size), nbytes)


def scatter_max(src: Tensor, index: np.ndarray, dim_size: int) -> Tensor:
    """Max-reduce rows of ``src`` into bins; empty bins yield zero, ties share the gradient."""
    index = check_index(index, len(src), dim_size)  # ufunc.at would wrap a negative index
    out = np.full((dim_size,) + src.shape[1:], -np.inf, dtype=np.float32)
    # The one ufunc.at left in src/repro: an unsorted max has no sparsetools
    # kernel, and sorting first to use reduceat measured slower.
    np.maximum.at(out, index, src.data)
    return _max_reduce(src, out, index, "scatter_max", "scatter_max_backward")


# ----------------------------------------------------------------------
# segment reductions (DGL style)
# ----------------------------------------------------------------------
def segment_sum(src: Tensor, offsets: np.ndarray) -> Tensor:
    """Sum contiguous row segments ``src[offsets[i]:offsets[i+1]]``."""
    offsets = check_offsets(offsets, len(src))
    lengths = np.diff(offsets)
    # Exclusive prefix sums make every segment (including empty ones) exact.
    csum = np.zeros((len(src) + 1,) + src.shape[1:], dtype=np.float64)
    np.cumsum(src.data, axis=0, dtype=np.float64, out=csum[1:])
    out = (csum[offsets[1:]] - csum[offsets[:-1]]).astype(np.float32)
    size = src.data.size
    flops = float(size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("segment_sum_backward", 0.0, _F32 * 2.0 * size)
        return (np.repeat(grad, lengths, axis=0).astype(np.float32, copy=False),)

    return make_op("segment_reduce_sum", out, (src,), backward, flops, nbytes)


def segment_mean(src: Tensor, offsets: np.ndarray) -> Tensor:
    """Mean over contiguous row segments; empty segments yield zero."""
    offsets = check_offsets(offsets, len(src))
    lengths = np.diff(offsets).astype(np.float32)
    safe = np.maximum(lengths, 1.0).reshape((-1,) + (1,) * (src.ndim - 1))
    summed = segment_sum(src, offsets)
    out = summed.data / safe
    flops = float(out.size)
    nbytes = float(_F32 * 2 * out.size)

    def backward(grad: np.ndarray):
        launch_backward("segment_mean_backward", float(grad.size), _F32 * 2.0 * grad.size)
        return (grad / safe,)

    # Chain through segment_sum's autograd by dividing the Tensor directly.
    return make_op("segment_reduce_mean_div", out, (summed,), backward, flops, nbytes)

