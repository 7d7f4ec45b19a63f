"""Reverse-mode autograd tensor backed by numpy.

Plays the role PyTorch plays under both GNN frameworks in the paper.  Every
operation does two things:

1. computes the numpy result, and
2. reports a *kernel launch* (name, flop count, bytes moved) to the active
   simulated device, so the performance observables the paper measures —
   kernel time, launch overhead, GPU utilisation, memory — fall out of the
   actual sequence of operations a model executes.

Only float data lives in tensors; integer index arrays (edge indices, batch
vectors) stay plain numpy, exactly as PyG/DGL keep them in ``int64`` buffers
that never need gradients.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.device import current_device
from repro.tensor.autograd import grad_enabled

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Gradient function: maps the output gradient to per-parent gradients
#: (``None`` for parents that do not require grad).
BackwardFn = Callable[[np.ndarray], Tuple[Optional[np.ndarray], ...]]


class _GradNode:
    """One op's entry on the autograd tape — the role of PyTorch's ``grad_fn``.

    The tape holds these, never the op's output Tensor: ``backward`` closes
    over only what its gradient formula reads, ``parents`` are the vertices
    the gradient flows to (another op's node, or a leaf / constant Tensor,
    which is its own vertex), and ``size`` / ``nbytes`` describe the output so
    a second gradient arriving here is charged its ``grad_accumulate``
    without the output array being kept alive.
    """

    __slots__ = ("backward", "parents", "size", "nbytes")

    def __init__(self, backward: BackwardFn, parents: Tuple[object, ...], size: int, nbytes: int) -> None:
        self.backward: Optional[BackwardFn] = backward
        self.parents = parents
        self.size = size
        self.nbytes = nbytes


class Tensor:
    """A numpy array with a reverse-mode autograd tape."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "_post_accumulate_hooks", "__weakref__")

    def __init__(self, data: ArrayLike, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        arr = np.asarray(data, dtype=np.float32)
        current_device().track(arr)
        self.data: np.ndarray = arr
        self.requires_grad: bool = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_GradNode] = None
        self._post_accumulate_hooks: Optional[List[Callable[["Tensor"], None]]] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        return int(self.data.nbytes)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return self.data.shape[0]

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Gradients accumulate into ``.grad`` of every reachable tensor with
        ``requires_grad=True``, as in PyTorch.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without a gradient needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float32)
            if grad.shape != self.shape:
                # numpy broadcasting plus ``unbroadcast`` would otherwise sum a
                # mis-shaped seed into gradients of the right shape, silently.
                raise ValueError(
                    f"Mismatch in shape: grad_output has shape {grad.shape}, "
                    f"output has shape {self.shape}"
                )

        root = self if self._node is None else self._node
        # Popped from the end, so each node is dropped once it has propagated.
        order = _postorder(root)
        grads: dict = {id(root): grad}
        while order:
            vertex = order.pop()
            vertex_grad = grads.pop(id(vertex), None)
            if vertex_grad is None:
                continue
            if not isinstance(vertex, _GradNode):
                _accumulate_leaf(vertex, vertex_grad)
                continue
            if vertex.backward is None:
                raise RuntimeError(
                    "backward through a graph a second time: its nodes were freed "
                    "by the first backward()"
                )
            parent_grads = vertex.backward(vertex_grad)
            vertex_grad = None  # consumed: the host frees it before the parents' sums
            for parent, pgrad in zip(vertex.parents, parent_grads):
                key = id(parent)
                if key not in grads:
                    # ``None``: the op skipped a gradient nobody reads.  The
                    # entry still marks the parent as reached, so a constant
                    # consumed twice keeps the accumulate kernel it is charged.
                    grads[key] = pgrad
                    continue
                current_device().launch(
                    "grad_accumulate", flops=parent.size, bytes_moved=3 * parent.nbytes
                )
                if pgrad is not None:
                    grads[key] = pgrad if grads[key] is None else grads[key] + pgrad
            # Free what the closure saved, like PyTorch releasing saved
            # tensors once their gradient has been used.  A parent stays
            # only while the walk holds it, not in this loop's variable.
            vertex.backward = None
            vertex.parents = ()
            parent = None

    def zero_grad(self) -> None:
        self.grad = None

    def register_post_accumulate_grad_hook(
        self, hook: Callable[["Tensor"], None]
    ) -> Callable[[], None]:
        """Call ``hook(self)`` after a backward pass accumulates into ``.grad``.

        Mirrors ``torch.Tensor.register_post_accumulate_grad_hook``: the
        autograd walk merges all contributions to a leaf before touching
        ``.grad``, so the hook fires exactly once per leaf per backward —
        the point where DDP knows a gradient is final and its bucket may
        ship.  Returns a zero-argument handle that removes the hook.
        """
        if not self.requires_grad:
            raise RuntimeError(
                "post-accumulate hooks only fire on tensors that require grad"
            )
        if self._post_accumulate_hooks is None:
            self._post_accumulate_hooks = []
        hooks = self._post_accumulate_hooks
        hooks.append(hook)

        def remove() -> None:
            if hook in hooks:
                hooks.remove(hook)

        return remove

    # ------------------------------------------------------------------
    # arithmetic (thin wrappers over repro.tensor.ops)
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(self, _coerce(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.sub(_coerce(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(self, _coerce(other))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        from repro.tensor import ops

        return ops.div(_coerce(other), self)

    def __neg__(self) -> "Tensor":
        from repro.tensor import ops

        return ops.neg(self)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __pow__(self, exponent: float) -> "Tensor":
        from repro.tensor import ops

        return ops.pow_scalar(self, float(exponent))

    # convenience method forms
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape: int) -> "Tensor":
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axis0: int = 0, axis1: int = 1) -> "Tensor":
        from repro.tensor import ops

        return ops.transpose(self, axis0, axis1)

    @property
    def T(self) -> "Tensor":
        return self.transpose(0, 1)


def _coerce(value: ArrayLike) -> Tensor:
    """Wrap scalars/arrays so arithmetic accepts raw operands."""
    if isinstance(value, Tensor):
        return value
    out = Tensor(np.asarray(value, dtype=np.float32))
    tracer = current_device().tracer
    if tracer is not None and out.size == 1:
        # Scalar literals are constants of the step: constant folding may
        # bake ops over them into the compiled plan.
        tracer.mark_constant(out)
    return out


def _postorder(root: object) -> List[object]:
    """Vertices reachable from ``root``, each after its parents (DFS post-order).

    Popped from the end this is the backward walk's topological order: a
    node propagates only once every consumer of its output has sent a gradient.
    """
    order: List[object] = []
    visited = set()
    stack: List[Tuple[object, bool]] = [(root, False)]
    while stack:
        vertex, processed = stack.pop()
        if processed:
            order.append(vertex)
            continue
        if id(vertex) in visited:
            continue
        visited.add(id(vertex))
        stack.append((vertex, True))
        if isinstance(vertex, _GradNode):
            for parent in vertex.parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
    return order


def _accumulate_leaf(tensor: Tensor, grad: np.ndarray) -> None:
    """Accumulate ``grad`` into a leaf tensor's ``.grad`` buffer."""
    if not tensor.requires_grad:
        return
    if tensor.grad is None:
        current_device().track(grad)
        tensor.grad = grad
    else:
        current_device().launch(
            "grad_accumulate", flops=grad.size, bytes_moved=3 * grad.nbytes
        )
        tensor.grad = tensor.grad + grad
        current_device().track(tensor.grad)
    if tensor._post_accumulate_hooks:
        for hook in tuple(tensor._post_accumulate_hooks):
            hook(tensor)


def make_op(
    name: str,
    out_data: np.ndarray,
    parents: Sequence[Tensor],
    backward: BackwardFn,
    flops: float,
    bytes_moved: float,
) -> Tensor:
    """Create the output tensor of an operation and register the kernel.

    ``backward`` receives the gradient w.r.t. the output and must return one
    gradient (or ``None``) per parent; it is responsible for reporting its
    own kernels to the device when it runs.  It is kept on the tape until it
    has run, so it must close over what its gradient formula reads — arrays,
    shapes, flags fixed at forward time — and never over a Tensor, whose
    ``.data`` it would keep alive whether the formula reads it or not.  To
    keep paying for a buffer it does not read, it holds the buffer's
    :class:`~repro.device.memory.Charge`.
    """
    device = current_device()
    device.launch(name, flops=flops, bytes_moved=bytes_moved)
    out = Tensor(out_data)
    if grad_enabled() and any(p.requires_grad for p in parents):
        _attach_node(out, parents, backward)
    if device.tracer is not None:
        device.tracer.annotate_op(out, parents)
    return out


def _attach_node(out: Tensor, parents: Sequence[Tensor], backward: BackwardFn) -> None:
    """Put ``out`` on the tape: a node with ``backward`` and its parents' vertices."""
    out.requires_grad = True
    out._node = _GradNode(
        backward,
        tuple(p if p._node is None else p._node for p in parents),
        out.data.size,
        out.data.nbytes,
    )


def launch_backward(name: str, flops: float = 0.0, bytes_moved: float = 0.0) -> None:
    """Report a kernel executed inside a backward function."""
    current_device().launch(name, flops=flops, bytes_moved=bytes_moved)


def block_rows(x: np.ndarray) -> int:
    """Rows of ``x`` in a block of about 64 Ki elements (at least one).

    Kernels that work a block of rows at a time keep a temporary this size
    instead of one as large as ``x``.
    """
    return 1 + (1 << 16) * len(x) // (x.size + 1)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.astype(np.float32, copy=False)
