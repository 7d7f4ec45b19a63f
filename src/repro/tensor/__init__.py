"""Numpy-backed autograd tensor engine (the "PyTorch" of this reproduction).

Public surface:

* :class:`Tensor` with reverse-mode :meth:`Tensor.backward`.
* :mod:`repro.tensor.ops` — dense ops (also exposed here for convenience).
* :mod:`repro.tensor.ops_scatter` — gather/scatter/segment kernels.
* :mod:`repro.tensor.ops_sparse` — fused GSpMM/GSDDMM kernels + CSR graphs.
* :func:`no_grad`, the gradient-mode switch.
* :func:`declare_sparse`, which lets dropout and matmul compute a read-only
  input on its nonzeros while the device is charged the dense kernels.
"""

from repro.tensor import ops
from repro.tensor._declared import declare_sparse
from repro.tensor.autograd import grad_enabled, no_grad
from repro.tensor.gradcheck import GradcheckError, gradcheck
from repro.tensor.creation import full, ones, randn, uniform, zeros
from repro.tensor.ops import (  # noqa: A004 - mirrors numpy naming
    abs,
    add,
    concat,
    div,
    dropout,
    elu,
    exp,
    leaky_relu,
    log,
    log1p,
    log_softmax,
    matmul,
    maximum,
    minimum,
    mul,
    relu,
    sigmoid,
    sqrt,
    stack,
    sub,
    tanh,
    transpose,
    where,
)
from repro.tensor.ops_nn import batch_norm, nll_loss
from repro.tensor.ops_scatter import (
    gather_mul_sum,
    index_rows,
    scatter_max,
    scatter_mean,
    scatter_sum,
    segment_mean,
    segment_sum,
)
from repro.tensor.ops_sparse import (
    CSRGraph,
    edge_softmax,
    gsddmm,
    gsddmm_dot,
    gspmm,
)
from repro.tensor.tensor import Tensor

__all__ = [
    "Tensor",
    "ops",
    "no_grad",
    "declare_sparse",
    "grad_enabled",
    "gradcheck",
    "GradcheckError",
    "zeros",
    "ones",
    "full",
    "randn",
    "uniform",
    "abs",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "exp",
    "log",
    "log1p",
    "maximum",
    "minimum",
    "where",
    "sqrt",
    "relu",
    "leaky_relu",
    "elu",
    "sigmoid",
    "tanh",
    "log_softmax",
    "concat",
    "stack",
    "transpose",
    "dropout",
    "batch_norm",
    "nll_loss",
    "index_rows",
    "gather_mul_sum",
    "scatter_sum",
    "scatter_mean",
    "scatter_max",
    "segment_sum",
    "segment_mean",
    "CSRGraph",
    "gspmm",
    "gsddmm",
    "gsddmm_dot",
    "edge_softmax",
]
