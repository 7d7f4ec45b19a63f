"""Gather / scatter / segment operations.

These are the kernels GNN frameworks are built from.  The PyG-style framework
(:mod:`repro.pygx`) aggregates messages with *scatter* ops keyed by an index
vector (PyTorch's ``scatter``/``index_select`` family); the DGL-style
framework (:mod:`repro.dglx`) pools node features per graph with *segment*
reductions over contiguous ranges (DGL's segment-reduce operator).  The paper
explicitly contrasts these two pooling paths in Section IV-C.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.device import current_device
from repro.device.memory import Charge
from repro.tensor._reduce import check_index, check_offsets, scatter_add_rows, scatter_add_rows_into
from repro.tensor.autograd import grad_enabled
from repro.tensor.tensor import Tensor, _GradNode, block_rows, launch_backward, make_op, unbroadcast

_F32 = 4
#: Edges per block of :func:`gather_mul_sum` and of GSpMM's edge-weight
#: gradient (1 MB of float32 at 8 heads x 32 features).
GATHER_MUL_BLOCK = 1024


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


def gather_mul_sum(
    x: Tensor, src: np.ndarray, weight: Tensor, dst: np.ndarray, num_nodes: int
) -> Tuple[Tensor, Charge]:
    """Weighted aggregation ``out[dst[e]] += x[src[e]] * weight[e, ..., None]`` (PyG's GAT).

    ``weight`` holds one scale per edge and leading feature axis: shape
    ``(len(src),) + x.shape[1:-1]``.  To the device this is the chain
    ``scatter_sum(ops.mul(index_rows(x, src), weight.reshape(weight.shape +
    (1,))), dst, num_nodes)``: the same launches, FLOPs and bytes, forward and
    backward, the same pool charges in the same order, and under capture the
    same IR.  Returns the ``(num_nodes,) + x.shape[1:]`` output and the
    charge of the chain's per-edge product, which the caller holds as long as
    the chain's caller held the product (pygx GAT: until its layer returns).

    The host never builds an ``(E,) + x.shape[1:]`` array.  The gathered rows
    and their product are charges with no array (the rows' is held by the
    tape node until this backward runs, as the product's node held the
    rows).  Forward and backward run :data:`GATHER_MUL_BLOCK` edges at a time,
    each block adding into one output or gradient buffer in edge order
    through the chain's own loop, so results are bit-equal to the chain's.
    ``src``, ``dst`` and ``weight`` are checked before any launch.

    Precondition: something else keeps ``x.data`` until after this backward
    (pygx GAT's attention halves save ``z``), or saving it for ``weight``'s
    gradient lengthens ``x``'s charge.
    """
    n_edges = len(src)
    if x.ndim < 2 or weight.shape != (n_edges,) + x.shape[1:-1]:
        raise ValueError(
            f"weight must have shape {(n_edges,) + x.shape[1:-1]} for x {x.shape}, "
            f"got {weight.shape}"
        )
    src = check_index(src, n_edges, len(x))
    dst = check_index(dst, n_edges, num_nodes)
    device = current_device()
    size = n_edges * math.prod(x.shape[1:])
    edge_shape = (n_edges,) + x.shape[1:]
    grad_on = grad_enabled()
    x_grad = grad_on and x.requires_grad

    device.launch("gather", flops=0.0, bytes_moved=float(_F32 * 2 * size))
    rows = device.reserve(_F32 * size)
    if device.tracer is not None:
        device.tracer.annotate_interior(rows, edge_shape, x_grad, (x,))
    scale = weight.reshape(weight.shape + (1,))
    w_grad = scale.requires_grad
    device.launch("mul", flops=float(size), bytes_moved=float(_F32 * 3 * size))
    product = device.reserve(_F32 * size)
    if device.tracer is not None:
        device.tracer.annotate_interior(product, edge_shape, x_grad or w_grad, (rows, scale))

    out_data = np.zeros((num_nodes,) + x.shape[1:], np.float32)
    for start in range(0, n_edges, GATHER_MUL_BLOCK):
        block = slice(start, start + GATHER_MUL_BLOCK)
        messages = x.data[src[block]]
        messages *= scale.data[block]
        scatter_add_rows_into(out_data, messages, dst[block])
    # The chain's product node: what it saved, and its parents.  An operand
    # needing no gradient is a constant vertex (the rows, here their charge;
    # the view), which the tape holds until the walk passes it.  What nothing
    # holds goes before the scatter launches, as the chain's did (rows first).
    x_data, saved_rows = (x.data, rows) if w_grad else (None, None)
    view = scale.data if x_grad else None
    parents = None
    if x_grad or w_grad:
        x_vertex = (x if x._node is None else x._node) if x_grad else rows
        parents = (x_vertex, scale if scale._node is None else scale._node)
    del rows, scale
    x_shape, w_shape = x.shape, weight.shape + (1,)

    def backward(grad: np.ndarray):
        nonlocal saved_rows, view
        launch_backward("scatter_sum_backward_gather", 0.0, _F32 * 2.0 * size)
        launch_backward("mul_backward", float(size), _F32 * 3.0 * size)
        gx = None if view is None else np.zeros(x_shape, np.float32)
        gw = None if saved_rows is None else np.empty(w_shape, np.float32)
        for start in range(0, n_edges, GATHER_MUL_BLOCK):
            block = slice(start, start + GATHER_MUL_BLOCK)
            g_messages = grad[dst[block]]
            if gw is not None:
                gw[block] = unbroadcast(g_messages * x_data[src[block]], gw[block].shape)
            if gx is not None:
                g_messages *= view[block]
                scatter_add_rows_into(gx, g_messages, src[block])
        # The product's node is done: its view and rows go before the gather's backward.
        view = saved_rows = None
        if gx is not None:
            launch_backward("gather_backward_scatter_add", float(size), _F32 * 3.0 * size)
        return gx, gw

    device.launch(
        "scatter_sum", flops=float(size), bytes_moved=float(_F32 * (size + out_data.size))
    )
    out = Tensor(out_data)
    if parents is not None:
        out.requires_grad = True
        out._node = _GradNode(backward, parents, out_data.size, out_data.nbytes)
    if device.tracer is not None:
        device.tracer.annotate_op(out, (product,))
    return out, product


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
        gathered = grad[index]  # fresh: scale it in place, not into a second copy
        gathered *= (1.0 / safe)[index].reshape((len(index),) + trailing)
        return (gathered,)

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
    # Exclusive float64 prefix sums make every segment (including empty ones)
    # exact.  The prefix is built a block of rows at a time: row 0 of the
    # buffer carries the prefix so far, an in-place cumsum extends it (the
    # very additions of one cumsum over all rows), and only the rows at
    # segment offsets are kept.  The first block has no carry row, so its
    # first prefix is the first row itself, as one cumsum's is (-0.0 stays).
    n, x = len(src), src.data
    rows = block_rows(x)
    prefix = np.zeros((len(offsets),) + x.shape[1:], dtype=np.float64)
    buf = np.zeros((min(rows, n) + 1,) + x.shape[1:], dtype=np.float64)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        block = buf[0 if start else 1 : stop - start + 1]
        buf[1 : stop - start + 1] = x[start:stop]
        np.cumsum(block, axis=0, out=block)
        lo, hi = np.searchsorted(offsets, (start, stop), side="right")
        prefix[lo:hi] = buf[offsets[lo:hi] - start]
        buf[0] = buf[stop - start]
    out = (prefix[1:] - prefix[:-1]).astype(np.float32)
    size = x.size
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

