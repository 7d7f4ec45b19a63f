"""Dense tensor operations: arithmetic, activations, reductions, shape.

Each operation computes with numpy and reports one forward kernel (and its
backward kernels, when they run) to the simulated device.  FLOP and byte
estimates follow the usual conventions: an elementwise op touches each input
and output once; a matmul of ``(n, k) @ (k, m)`` costs ``2nkm`` FLOPs.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro._random import BLOCK, random_at, random_blocks
from repro.device import current_device
from repro.tensor._declared import DeclaredTensor, SparseRows, sparse_rows
from repro.tensor._reduce import csr_product
from repro.tensor.autograd import grad_enabled
from repro.tensor.tensor import Tensor, _attach_node, block_rows, launch_backward, make_op, unbroadcast

Axis = Union[None, int, Tuple[int, ...]]

_F32 = 4  # bytes per element
#: Bits of float32 +inf: a float32 is finite with its sign bit clear iff its bits are below.
_F32_INF_BITS = 0x7F800000


def _ew_cost(out: np.ndarray, n_inputs: int = 2) -> Tuple[float, float]:
    """(flops, bytes) for an elementwise kernel producing ``out``."""
    return float(out.size), float(_F32 * (n_inputs + 1) * out.size)


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    flops, nbytes = _ew_cost(out)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad: np.ndarray):
        launch_backward("add_backward", *_ew_cost(grad))
        return unbroadcast(grad, a_shape), unbroadcast(grad, b_shape)

    return make_op("add", out, (a, b), backward, flops, nbytes)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    flops, nbytes = _ew_cost(out)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad: np.ndarray):
        launch_backward("sub_backward", *_ew_cost(grad))
        return unbroadcast(grad, a_shape), unbroadcast(-grad, b_shape)

    return make_op("sub", out, (a, b), backward, flops, nbytes)


def mul(a: Tensor, b: Tensor) -> Tensor:
    # A declared-sparse lhs scaled row by row by a column that is finite and
    # non-negative (dglx GraphConv's ``h * norm``) stays declared: its zeros
    # stay +0.0 (docs/cost_model.md, "Declared-sparse inputs").
    declared = type(a) is DeclaredTensor
    a_shape = a.shape if declared else a.data.shape
    rows = None
    if b.data.shape == a_shape[:1] + (1,) and not (a.requires_grad or b.requires_grad):
        rows = a.rows if declared else sparse_rows(a.data)
    if rows is not None and b.data.dtype == np.float32 and np.all(b.data.view(np.uint32) < _F32_INF_BITS):
        values = rows.data * np.repeat(b.data.reshape(-1), np.diff(rows.indptr))
        return _declared_op("mul", rows, a_shape, values, (a, b))
    out = a.data * b.data
    flops, nbytes = _ew_cost(out)
    b_shape = b.data.shape
    # Each operand is saved only for the other's gradient.
    a_data = a.data if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(grad: np.ndarray):
        launch_backward("mul_backward", *_ew_cost(grad))
        # A broadcast operand's gradient comes first: its full-size product is
        # reduced and freed before the other full-size gradient is allocated.
        gb = None
        if a_data is not None and b_shape != grad.shape:
            gb = unbroadcast(grad * a_data, b_shape)
        ga = None if b_data is None else unbroadcast(grad * b_data, a_shape)
        if a_data is not None and gb is None:
            gb = unbroadcast(grad * a_data, b_shape)
        return ga, gb

    return make_op("mul", out, (a, b), backward, flops, nbytes)


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    flops, nbytes = _ew_cost(out)
    a_shape, b_shape = a.data.shape, b.data.shape
    # The divisor is read by both gradients, the dividend only by the divisor's.
    a_live, b_data = a.requires_grad, b.data
    a_data = a.data if b.requires_grad else None

    def backward(grad: np.ndarray):
        launch_backward("div_backward", *_ew_cost(grad))
        # As in mul, a broadcast operand's gradient is reduced first.
        gb = None
        if a_data is not None and b_shape != grad.shape:
            gb = unbroadcast(-grad * a_data / (b_data * b_data), b_shape)
        ga = unbroadcast(grad / b_data, a_shape) if a_live else None
        if a_data is not None and gb is None:
            gb = unbroadcast(-grad * a_data / (b_data * b_data), b_shape)
        return ga, gb

    return make_op("div", out, (a, b), backward, flops, nbytes)


def neg(a: Tensor) -> Tensor:
    out = -a.data
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("neg_backward", *_ew_cost(grad, 1))
        return (-grad,)

    return make_op("neg", out, (a,), backward, flops, nbytes)


def pow_scalar(a: Tensor, exponent: float) -> Tensor:
    x = a.data
    out = x**exponent
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("pow_backward", *_ew_cost(grad, 1))
        return (grad * exponent * x ** (exponent - 1.0),)

    return make_op("pow", out, (a,), backward, flops, nbytes)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("exp_backward", *_ew_cost(grad, 1))
        return (grad * out,)

    return make_op("exp", out, (a,), backward, flops, nbytes)


def log(a: Tensor) -> Tensor:
    x = a.data
    out = np.log(x)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("log_backward", *_ew_cost(grad, 1))
        return (grad / x,)

    return make_op("log", out, (a,), backward, flops, nbytes)


def sqrt(a: Tensor) -> Tensor:
    out = np.sqrt(a.data)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("sqrt_backward", *_ew_cost(grad, 1))
        return (grad * 0.5 / np.maximum(out, 1e-12),)

    return make_op("sqrt", out, (a,), backward, flops, nbytes)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    n, k = a.shape
    k2, m = b.shape
    if k != k2:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    # A declared-sparse lhs is multiplied on its nonzeros and charged as the
    # dense GEMM (docs/cost_model.md, "Declared-sparse inputs").
    declared = type(a) is DeclaredTensor
    rows = a.rows if declared else sparse_rows(a.data)
    if rows is None:
        out = a.data @ b.data
    else:
        out = csr_product(rows.indptr, rows.indices, rows.data, b.data, n)
    flops = 2.0 * n * k * m
    nbytes = float(_F32 * (n * k + k * m + n * m))
    # Each operand is saved only for the other's gradient; a sparse lhs is
    # saved as well, unread, so the pool frees its dense bytes when it would
    # (a declared output as its charge: it has no dense array to save).
    a_data = (a.charge if declared else a.data) if b.requires_grad else None
    b_data = b.data if a.requires_grad else None

    def backward(grad: np.ndarray):
        launch_backward("matmul_backward_a", 2.0 * n * m * k, _F32 * (n * m + k * m + n * k))
        launch_backward("matmul_backward_b", 2.0 * k * n * m, _F32 * (n * k + n * m + k * m))
        if a_data is None:
            gb = None
        elif rows is None:
            gb = a_data.T @ grad
        else:
            gb = csr_product(rows.indptr, rows.indices, rows.data, grad, k, transpose=True)
        return None if b_data is None else grad @ b_data.T, gb

    return make_op("matmul", out, (a, b), backward, flops, nbytes)


# ----------------------------------------------------------------------
# activations
# ----------------------------------------------------------------------
def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("relu_backward", *_ew_cost(grad, 1))
        # ``out > 0`` exactly where ``a > 0``: the output is saved, not the input.
        return (grad * (out > 0.0),)

    return make_op("relu", out, (a,), backward, flops, nbytes)


def _add_positive_part(out: np.ndarray, x: np.ndarray) -> None:
    """``out += max(x, 0)`` a block of rows at a time.

    No full-size temporary, and no masked copy (it mispredicts on the sign
    as ``where`` does).
    """
    rows = block_rows(x)
    for start in range(0, len(x), rows):
        out[start : start + rows] += np.maximum(x[start : start + rows], 0.0)


def leaky_relu(a: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU, branch-free: ``max(x, 0) + slope * min(x, 0)``.

    One of the two terms is a zero for every element, so the result has the
    bits of ``where(x > 0, x, slope * x)`` without a select on a sign that is
    a coin flip per element (docs/kernels.md, "Activation numerics").
    """
    x = a.data
    out = np.minimum(x, 0.0)
    out *= negative_slope
    _add_positive_part(out, x)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("leaky_relu_backward", *_ew_cost(grad, 1))
        positive = x > 0.0
        local = np.multiply(~positive, np.float32(negative_slope), dtype=np.float32)
        local += positive
        local *= grad
        return (local,)

    return make_op("leaky_relu", out, (a,), backward, flops, nbytes)


def elu(a: Tensor) -> Tensor:
    """ELU (``alpha = 1``), branch-free: ``max(x, 0) + (exp(min(x, 0)) - 1)``.

    The second term is exactly 0 where ``x > 0``, so the result has the bits
    of the ``where(x > 0, x, ...)`` form.  The backward factor is
    ``min(out, 0) + 1``: ``[out > 0]`` is ``[x > 0]`` for every input, and
    the factor is exactly 1 there, so it has the bits of the select form's
    ``(min(out, 0) + 1) * (1 - [x > 0]) + [x > 0]`` for every input, ``+inf``
    and ``nan`` included (docs/kernels.md, "Activation numerics").  So the
    closure saves only the output, and the input's charges (its array's and
    each base's): the device pays for the input until this backward runs,
    as when it was saved, while the host frees it when the forward is done
    with it.
    """
    x = a.data
    out = np.minimum(x, 0.0)
    np.exp(out, out=out)
    out -= 1.0
    _add_positive_part(out, x)
    flops, nbytes = _ew_cost(out, 1)
    charges = current_device().memory.charges(x)

    def backward(grad: np.ndarray):
        _ = charges  # the saved input's charges, freed after this runs
        launch_backward("elu_backward", *_ew_cost(grad, 1))
        local = np.minimum(out, 0.0)
        local += 1.0
        local *= grad
        return (local,)

    return make_op("elu", out, (a,), backward, flops, nbytes)


def sigmoid(a: Tensor) -> Tensor:
    out = (1.0 / (1.0 + np.exp(-a.data))).astype(np.float32, copy=False)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("sigmoid_backward", *_ew_cost(grad, 1))
        return (grad * out * (1.0 - out),)

    return make_op("sigmoid", out, (a,), backward, flops, nbytes)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("tanh_backward", *_ew_cost(grad, 1))
        return (grad * (1.0 - out * out),)

    return make_op("tanh", out, (a,), backward, flops, nbytes)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = (shifted - log_sum).astype(np.float32, copy=False)
    flops = 4.0 * out.size
    nbytes = float(_F32 * 2 * out.size)

    def backward(grad: np.ndarray):
        launch_backward("log_softmax_backward", 4.0 * grad.size, _F32 * 3 * grad.size)
        softmax_out = np.exp(out)
        return (grad - softmax_out * grad.sum(axis=axis, keepdims=True),)

    return make_op("log_softmax", out, (a,), backward, flops, nbytes)


# ----------------------------------------------------------------------
# reductions
# ----------------------------------------------------------------------
def sum(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = a.data.sum(axis=axis, keepdims=keepdims, dtype=np.float32)
    out = np.asarray(out, dtype=np.float32)
    shape, size = a.data.shape, a.data.size
    flops = float(size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("sum_backward", float(size), _F32 * 2.0 * size)
        expanded = _expand_reduced_grad(grad, shape, axis, keepdims)
        return (expanded,)

    return make_op("sum", out, (a,), backward, flops, nbytes)


def mean(a: Tensor, axis: Axis = None, keepdims: bool = False) -> Tensor:
    out = a.data.mean(axis=axis, keepdims=keepdims, dtype=np.float32)
    out = np.asarray(out, dtype=np.float32)
    shape, size = a.data.shape, a.data.size
    count = size // out.size if out.size else 1  # NB: builtins.max is shadowed here
    flops = float(size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("mean_backward", float(size), _F32 * 2.0 * size)
        expanded = _expand_reduced_grad(grad, shape, axis, keepdims)
        return (expanded / np.float32(count),)

    return make_op("mean", out, (a,), backward, flops, nbytes)


def max(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:  # noqa: A001
    out = a.data.max(axis=axis, keepdims=keepdims)
    argmax = a.data.argmax(axis=axis)
    shape, size = a.data.shape, a.data.size
    flops = float(size)
    nbytes = float(_F32 * (size + out.size))

    def backward(grad: np.ndarray):
        launch_backward("max_backward", float(size), _F32 * 2.0 * size)
        full = np.zeros(shape, dtype=np.float32)
        grad_arr = grad if keepdims else np.expand_dims(grad, axis)
        np.put_along_axis(full, np.expand_dims(argmax, axis), grad_arr, axis=axis)
        return (full,)

    return make_op("max", np.asarray(out, np.float32), (a,), backward, flops, nbytes)


def _expand_reduced_grad(
    grad: np.ndarray, shape: Tuple[int, ...], axis: Axis, keepdims: bool
) -> np.ndarray:
    """Broadcast a reduction's output gradient back to the input shape."""
    if axis is None:
        return np.broadcast_to(grad, shape).astype(np.float32)
    axes = (axis,) if isinstance(axis, int) else tuple(axis)
    if not keepdims:
        for ax in sorted(ax % len(shape) for ax in axes):
            grad = np.expand_dims(grad, ax)
    return np.broadcast_to(grad, shape).astype(np.float32)


# ----------------------------------------------------------------------
# shape manipulation
# ----------------------------------------------------------------------
def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out = a.data.reshape(shape)
    # Views are free on real hardware; charge a minimal kernel-free host op
    # by reporting zero flops/bytes through a named launch would overstate
    # cost, so reshape does not launch at all.
    result = Tensor(out)
    if a.requires_grad and grad_enabled():
        a_shape = a.data.shape
        _attach_node(result, (a,), lambda grad: (grad.reshape(a_shape),))
    tracer = current_device().tracer
    if tracer is not None:
        # No kernel, but the dataflow edge must survive into the IR.
        tracer.alias(result, a)
    return result


def transpose(a: Tensor, axis0: int = 0, axis1: int = 1) -> Tensor:
    out = np.swapaxes(a.data, axis0, axis1)
    flops, nbytes = 0.0, float(_F32 * 2 * out.size)

    def backward(grad: np.ndarray):
        launch_backward("transpose_backward", 0.0, _F32 * 2.0 * grad.size)
        return (np.swapaxes(grad, axis0, axis1),)

    return make_op("transpose", np.ascontiguousarray(out), (a,), backward, flops, nbytes)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    flops = 0.0
    nbytes = float(_F32 * 2 * out.size)
    sizes = [t.shape[axis] for t in tensors]

    def backward(grad: np.ndarray):
        launch_backward("concat_backward", 0.0, _F32 * 2.0 * grad.size)
        splits = np.cumsum(sizes)[:-1]
        return tuple(np.ascontiguousarray(g) for g in np.split(grad, splits, axis=axis))

    return make_op("concat", out, tuple(tensors), backward, flops, nbytes)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    if not tensors:
        raise ValueError("stack needs at least one tensor")
    out = np.stack([t.data for t in tensors], axis=axis)
    flops = 0.0
    nbytes = float(_F32 * 2 * out.size)
    count = len(tensors)

    def backward(grad: np.ndarray):
        launch_backward("stack_backward", 0.0, _F32 * 2.0 * grad.size)
        parts = np.split(grad, count, axis=axis)
        return tuple(np.ascontiguousarray(p.squeeze(axis)) for p in parts)

    return make_op("stack", out, tuple(tensors), backward, flops, nbytes)


def clamp_min(a: Tensor, minimum: float) -> Tensor:
    x = a.data
    out = np.maximum(x, minimum)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("clamp_backward", *_ew_cost(grad, 1))
        return (grad * (x >= minimum),)

    return make_op("clamp_min", out, (a,), backward, flops, nbytes)


def dropout(a: Tensor, p: float, training: bool, rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity (and no kernel) when not training or p=0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return a
    rng = rng or np.random.default_rng()
    keep = np.float32(1.0) / np.float32(1.0 - p)
    rows = None
    if not a.requires_grad:
        rows = a.rows if type(a) is DeclaredTensor else sparse_rows(a.data)
    if rows is not None and type(rng.bit_generator) is np.random.PCG64:
        # No gradient can reach ``a``, so no backward runs.
        return _declared_op("dropout", rows, a.shape, _dropout_nonzeros(rows, p, keep, rng), (a,))
    # mask = (rng.random(a.shape) >= p) / float32(1 - p) and out = a.data * mask,
    # block by block: the full-size float64 draw is never requested.  Each
    # float32 mask block is built in the output's slot and multiplied in
    # place; only the bool keep mask is saved, and only when backward reads it.
    out = np.empty(a.shape, dtype=np.float32)
    saved = grad_enabled() and a.requires_grad
    kept = np.empty(a.size if saved else min(a.size, BLOCK), dtype=bool)
    flat_in, flat_out = np.ascontiguousarray(a.data).ravel(), out.ravel()
    for start, stop, uniform in random_blocks(rng, a.size):
        block_kept = kept[start:stop] if saved else kept[: stop - start]
        mask = flat_out[start:stop]
        np.greater_equal(uniform, p, out=block_kept)
        np.multiply(block_kept, keep, out=mask)
        np.multiply(flat_in[start:stop], mask, out=mask)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("dropout_backward", *_ew_cost(grad, 1))
        # grad * (kept * keep), the float32 mask rebuilt a block at a time.
        g_out = np.empty(grad.shape, dtype=np.promote_types(grad.dtype, np.float32))
        flat_grad, flat_g = np.ascontiguousarray(grad).ravel(), g_out.ravel()
        for start in range(0, flat_g.size, BLOCK):
            mask = flat_g[start : start + BLOCK]
            np.multiply(kept[start : start + BLOCK], keep, out=mask)
            np.multiply(flat_grad[start : start + BLOCK], mask, out=mask)
        return (g_out,)

    return make_op("dropout", out, (a,), backward, flops, nbytes)


def _dropout_nonzeros(rows: SparseRows, p: float, keep: np.float32, rng: np.random.Generator) -> np.ndarray:
    """``dropout``'s output values at the stored positions of a declared input, bit for bit.

    Only the uniforms at stored positions are drawn, by jumping ``PCG64``
    to each (``random_at``), and the generator ends where the dense draw
    leaves it.  Each stored element gets the dense path's ``x * mask``, and
    every other element is ``+0.0`` there and here.
    """
    kept = random_at(rng, rows.jumps, rows.positions) >= p
    values = np.multiply(kept, keep, dtype=np.float32)
    values *= rows.data
    return values


def _declared_op(
    name: str, rows: SparseRows, shape: Tuple[int, ...], values: np.ndarray, parents: Sequence[Tensor]
) -> DeclaredTensor:
    """Launch ``name`` as its dense elementwise kernel over ``parents``; no backward.

    The output is ``values`` at the positions of ``rows`` over ``+0.0``, held
    as the CSR of its entries whose bits are not ``+0.0``'s.
    """
    device = current_device()
    size = math.prod(shape)
    device.launch(name, flops=float(size), bytes_moved=float(_F32 * (len(parents) + 1) * size))
    out = DeclaredTensor(rows.select(values.view(np.uint32) != 0, values), shape)
    if device.tracer is not None:
        device.tracer.annotate_op(out, parents)
    return out


def abs(a: Tensor) -> Tensor:  # noqa: A001
    x = a.data
    out = np.abs(x)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("abs_backward", *_ew_cost(grad, 1))
        return (grad * np.sign(x),)

    return make_op("abs", out, (a,), backward, flops, nbytes)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; exact ties send the gradient to the first operand."""
    x, y = a.data, b.data
    out = np.maximum(x, y)
    flops, nbytes = _ew_cost(out)

    def backward(grad: np.ndarray):
        launch_backward("maximum_backward", *_ew_cost(grad))
        a_wins = x >= y
        return (
            unbroadcast(grad * a_wins, x.shape),
            unbroadcast(grad * ~a_wins, y.shape),
        )

    return make_op("maximum", out, (a, b), backward, flops, nbytes)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; exact ties send the gradient to the first operand."""
    x, y = a.data, b.data
    out = np.minimum(x, y)
    flops, nbytes = _ew_cost(out)

    def backward(grad: np.ndarray):
        launch_backward("minimum_backward", *_ew_cost(grad))
        a_wins = x <= y
        return (
            unbroadcast(grad * a_wins, x.shape),
            unbroadcast(grad * ~a_wins, y.shape),
        )

    return make_op("minimum", out, (a, b), backward, flops, nbytes)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select ``a`` where ``condition`` else ``b`` (condition is data)."""
    condition = np.asarray(condition, dtype=bool)
    out = np.where(condition, a.data, b.data).astype(np.float32, copy=False)
    flops, nbytes = _ew_cost(out)
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(grad: np.ndarray):
        launch_backward("where_backward", *_ew_cost(grad))
        return (
            unbroadcast(grad * condition, a_shape),
            unbroadcast(grad * ~condition, b_shape),
        )

    return make_op("where", out, (a, b), backward, flops, nbytes)


def log1p(a: Tensor) -> Tensor:
    x = a.data
    out = np.log1p(x)
    flops, nbytes = _ew_cost(out, 1)

    def backward(grad: np.ndarray):
        launch_backward("log1p_backward", *_ew_cost(grad, 1))
        return (grad / (1.0 + x),)

    return make_op("log1p", out, (a,), backward, flops, nbytes)
