"""Fused sparse-dense kernels (GSpMM / GSDDMM).

The paper observes that DGL lowers its message passing to GSpMM —
"Generalized Sparse-Matrix Dense-Matrix Multiplication" — which *fuses* two
steps into one kernel: computing messages from source-node (and optionally
edge) features, and aggregating them on destination nodes (Section IV-C).

:func:`gspmm` is that fused kernel: a single launch per call, in contrast to
the PyG-style gather + scatter pair.  :func:`gsddmm` is its generalized
companion — "Sampled Dense-Dense Matrix Multiplication" — producing per-edge
values from node/edge operands (attention logits, gated edge features) in a
single fused launch; :func:`gsddmm_dot` is the legacy dot-product entry
point, now a thin wrapper.

The kernel contract is documented in ``docs/kernels.md``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.device import current_device
from repro.tensor._reduce import csr_product, scatter_add_rows, segment_add_rows
from repro.tensor.ops_scatter import GATHER_MUL_BLOCK
from repro.tensor.tensor import Tensor, launch_backward, make_op, unbroadcast

_F32 = 4


def _segment_max_csr(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-segment max over CSR-contiguous ``values`` (vectorised).

    Empty segments yield ``-inf``.  Exact regardless of reduction order, so
    this is bitwise-identical to an ``np.maximum.at`` loop.
    """
    out = np.full((len(indptr) - 1,) + values.shape[1:], -np.inf, dtype=np.float32)
    if len(values):
        nonempty = np.diff(indptr) > 0
        if nonempty.any():
            out[nonempty] = np.maximum.reduceat(values, indptr[:-1][nonempty], axis=0)
    return out


class CSRGraph:
    """Compressed sparse row adjacency used by the DGL-style framework.

    Rows are destination nodes; ``indices`` hold the source node of each
    incoming edge, so ``A @ X`` aggregates source features onto destinations.
    ``edge_ids`` maps each CSR position back to the original edge ordering
    so per-edge tensors (weights, gates) line up.
    """

    def __init__(
        self, indptr: np.ndarray, indices: np.ndarray, edge_ids: np.ndarray, num_src: int
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.edge_ids = np.asarray(edge_ids, dtype=np.int64)
        self.num_dst = len(self.indptr) - 1
        self.num_src = int(num_src)
        if len(self.indices) != len(self.edge_ids):
            raise ValueError("indices and edge_ids must have equal length")
        # Destination node of each CSR slot (row expansion), used by backward.
        self.rows = np.repeat(np.arange(self.num_dst), np.diff(self.indptr))
        # Sparse formats live in device memory (DGL keeps COO + CSR copies).
        device = current_device()
        for array in (self.indptr, self.indices, self.edge_ids, self.rows):
            device.track(array)
        self._head_csr: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_edge_index(
        cls, src: np.ndarray, dst: np.ndarray, num_src: int, num_dst: int
    ) -> "CSRGraph":
        """Build CSR (by destination) from COO ``src -> dst`` edge lists."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src) != len(dst):
            raise ValueError("src and dst must have equal length")
        if len(dst) and (dst.min() < 0 or dst.max() >= num_dst):
            raise ValueError("dst index out of range")
        if len(src) and (src.min() < 0 or src.max() >= num_src):
            raise ValueError("src index out of range")
        order = np.argsort(dst, kind="stable")
        indptr = np.zeros(num_dst + 1, dtype=np.int64)
        np.cumsum(np.bincount(dst, minlength=num_dst), out=indptr[1:])
        return cls(indptr, src[order], order, num_src)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def in_degrees(self) -> np.ndarray:
        """In-degree of each destination node."""
        return np.diff(self.indptr)

    def head_expansion(self, heads: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, perm)`` of the CSR that runs ``heads`` weighted copies of this one.

        Row ``r * heads + h`` holds row ``r``'s slots ``k`` in order, at
        column ``indices[k] * heads + h``; ``perm`` maps each of its slots to
        ``k * heads + h``, the position of its weight in a flattened
        CSR-ordered ``(E, heads)`` array.  So ``(N, heads, D)`` features are
        its ``(N * heads, D)`` operand as they lie, and its product already
        has the ``(rows, heads, D)`` layout.  Built on first use and cached
        per head count, as DGL caches formats on a graph; a host-only layout,
        never charged (docs/cost_model.md, "Memory").
        """
        cached = self._head_csr.get(heads)
        if cached is None:
            indptr = np.zeros(self.num_dst * heads + 1, dtype=np.int64)
            np.cumsum(np.repeat(np.diff(self.indptr), heads), out=indptr[1:])
            row = np.repeat(np.arange(self.num_dst * heads), np.diff(indptr))
            head = row % heads
            slot = self.indptr[row // heads] + np.arange(len(row)) - indptr[row]
            cached = indptr, self.indices[slot] * heads + head, slot * heads + head
            self._head_csr[heads] = cached
        return cached


def _as_scalar_weight(w: np.ndarray) -> Optional[np.ndarray]:
    """Return a flat ``(E,)`` view of a scalar per-edge weight, else None."""
    if w.ndim == 1:
        return w
    if w.ndim == 2 and w.shape[1] == 1:
        return w[:, 0]
    return None


def _per_head_product(
    graph: CSRGraph, w_sorted: np.ndarray, feat: np.ndarray, num_rows: int, transpose: bool
) -> np.ndarray:
    """``A_h @ feat[:, h]`` (or ``A_h.T @``) for every head ``h``, as ``(num_rows, H, D)``.

    ``A_h`` is the adjacency weighted by head ``h`` of the CSR-ordered
    ``(E, H, 1)`` weights.  One :func:`csr_product` over the graph's
    :meth:`~CSRGraph.head_expansion` multiplies inside the reduction loop —
    the fusion GSpMM is named for — instead of materialising ``(E, H, D)``
    messages.  Each result row adds the same products in the same order as
    one call per head would, so the bits are those of a per-head loop.  The
    result is the buffer the kernel fills, never a view, so the pool
    charges it as a fresh array.
    """
    heads, dim = w_sorted.shape[1], feat.shape[2]
    indptr, indices, perm = graph.head_expansion(heads)
    out = np.zeros((num_rows, heads, dim), dtype=np.float32)
    csr_product(
        indptr,
        indices,
        w_sorted.reshape(-1)[perm],
        feat.reshape(len(feat) * heads, dim),
        num_rows * heads,
        transpose,
        out=out.reshape(num_rows * heads, dim),
    )
    return out


def _edge_weight_grad(
    graph: CSRGraph, g: np.ndarray, dst: Optional[np.ndarray], x_data: np.ndarray, w_shape: Tuple[int, ...]
) -> np.ndarray:
    """The weight's gradient: the CSR-ordered products ``g[dst] * x[src]``, reduced, in edge order.

    ``g`` is per destination node (``dst`` maps CSR slots to it) or, with
    ``dst=None``, already per CSR slot.  Each product sums out the trailing
    feature axes the weight does not carry, then unbroadcasts any remaining
    size-1 axes.  It is formed :data:`GATHER_MUL_BLOCK` edges at a time, so
    no ``(E, H, D)`` product is ever whole; bit-equal, since each row's sum
    is unchanged.
    """
    target_shape = (graph.num_edges,) + w_shape[1:]
    gw_sorted = np.empty(target_shape, dtype=np.float32)
    for start in range(0, graph.num_edges, GATHER_MUL_BLOCK):
        block = slice(start, start + GATHER_MUL_BLOCK)
        if dst is None:
            prod = g[block] * x_data[graph.indices[block]]
        else:
            prod = g[dst[block]]  # fresh: multiply in place, not into a second block
            prod *= x_data[graph.indices[block]]
        extra = prod.ndim - len(target_shape)
        if extra > 0:
            prod = prod.sum(axis=tuple(range(prod.ndim - extra, prod.ndim)))
        gw_sorted[block] = unbroadcast(prod, gw_sorted[block].shape)
    gw = np.zeros(w_shape, dtype=np.float32)
    gw[graph.edge_ids] = gw_sorted
    return gw


def gspmm(
    graph: CSRGraph,
    x: Tensor,
    edge_weight: Optional[Tensor] = None,
    reduce: str = "sum",
) -> Tensor:
    """Fused message + aggregate: ``out[d] = reduce_{(s,d)} w_e * x[s]``.

    One kernel launch regardless of the message/reduce combination — this is
    the fusion the paper credits GSpMM for.  ``edge_weight`` is per-edge in
    the *original* edge order; its trailing shape must broadcast against
    ``x``'s trailing shape (e.g. ``(E,)``, ``(E, 1)``, ``(E, H, 1)`` against
    node features ``(N, H, D)``).
    """
    if reduce not in ("sum", "mean", "max"):
        raise ValueError(f"gspmm supports sum/mean/max, got {reduce!r}")
    if len(x) != graph.num_src:
        raise ValueError(f"x has {len(x)} rows, graph expects {graph.num_src}")
    e = graph.num_edges
    if edge_weight is not None and len(edge_weight) != e:
        raise ValueError(f"edge_weight has {len(edge_weight)} rows, graph has {e} edges")
    if reduce == "max":
        return _gspmm_max(graph, x, edge_weight)
    feat_dim = math.prod(x.shape[1:])
    degrees = np.maximum(graph.in_degrees(), 1).astype(np.float32)

    w_csr_scalar: Optional[np.ndarray] = None
    w_sorted: Optional[np.ndarray] = None
    if edge_weight is not None:
        scalar = _as_scalar_weight(edge_weight.data)
        if scalar is not None:
            w_csr_scalar = scalar[graph.edge_ids]
        else:
            w_sorted = edge_weight.data[graph.edge_ids]

    # Per-head weights (E, H, 1) over (N, H, D) features: GAT's attention.
    per_head = w_sorted is not None and x.ndim == 3 and w_sorted.shape[1:] == (x.shape[1], 1)
    if w_sorted is None:
        out = csr_product(graph.indptr, graph.indices, w_csr_scalar, x.data, graph.num_dst)
    elif per_head:
        out = _per_head_product(graph, w_sorted, x.data, graph.num_dst, transpose=False)
    else:
        msgs = (w_sorted * x.data[graph.indices]).astype(np.float32)
        out = segment_add_rows(msgs, graph.indptr)
    if reduce == "mean":
        out = out / degrees.reshape((-1,) + (1,) * (out.ndim - 1))

    flops = 2.0 * e * feat_dim
    # The kernel reads one source row per edge (random access), the weight
    # per edge and the input, and writes the output.
    nbytes = float(_F32 * (e * feat_dim + e + x.size + out.size))
    parents: Tuple[Tensor, ...] = (x,) if edge_weight is None else (x, edge_weight)
    x_size, x_trailing = x.data.size, x.data.shape[1:]
    # The features are read back only for the weight's gradient.
    w_shape = None if edge_weight is None else edge_weight.data.shape
    x_data = x.data if edge_weight is not None and edge_weight.requires_grad else None

    # DGL's GSpMM materialises a message-frame workspace of one value per
    # edge per feature (plus CSR-ordered weight copies); it stays allocated
    # while the autograd graph holds this kernel's backward closure, which
    # is what pushes DGL's peak memory above PyG's in Fig. 4.  Nothing reads
    # or writes it, so the closure holds its charge and no host array.
    device = current_device()
    workspace = device.reserve(_F32 * 2 * e * feat_dim)
    if w_csr_scalar is not None:
        device.track(w_csr_scalar)
    if w_sorted is not None:
        device.track(w_sorted)

    def backward(grad: np.ndarray):
        _ = workspace  # the saved workspace's charge, freed after this runs
        g = grad.astype(np.float32, copy=False)
        if reduce == "mean":
            g = g / degrees.reshape((-1,) + (1,) * (g.ndim - 1))
        launch_backward("gspmm_backward_x", 2.0 * e * feat_dim, _F32 * (e * feat_dim + g.size + x_size))
        if w_sorted is None:
            gx = csr_product(
                graph.indptr, graph.indices, w_csr_scalar, g, graph.num_src, transpose=True
            )
        elif per_head:
            gx = _per_head_product(graph, w_sorted, g, graph.num_src, transpose=True)
        else:
            per_edge = (w_sorted * g[graph.rows]).astype(np.float32)
            per_edge = unbroadcast(per_edge, (e,) + x_trailing)
            gx = scatter_add_rows(per_edge, graph.indices, graph.num_src)
        if w_shape is None:
            return (gx,)
        launch_backward("gspmm_backward_w", 2.0 * e * feat_dim, _F32 * (2 * e * feat_dim + e))
        if x_data is None:
            return (gx, None)
        return (gx, _edge_weight_grad(graph, g, graph.rows, x_data, w_shape))

    return make_op("gspmm", out, parents, backward, flops, nbytes)


#: Binary combinators the generalized GSDDMM kernel supports.  ``copy_lhs``
#: takes a single operand (``rhs=None``) and is the degenerate
#: gather-to-edges kernel.
GSDDMM_OPS = ("add", "sub", "mul", "div", "dot", "copy_lhs")

#: Operand targets: ``u`` = source node, ``v`` = destination node,
#: ``e`` = per-edge (original edge order).
GSDDMM_TARGETS = ("u", "v", "e")


def _gsddmm_rows(graph: CSRGraph, target: str) -> int:
    return {"u": graph.num_src, "v": graph.num_dst, "e": graph.num_edges}[target]


def _gsddmm_gather(graph: CSRGraph, data: np.ndarray, target: str) -> np.ndarray:
    """Operand rows in CSR (destination-sorted) order for a target."""
    if target == "u":
        return data[graph.indices]
    if target == "v":
        return data[graph.rows]
    return data[graph.edge_ids]


def _gsddmm_scatter_grad(
    graph: CSRGraph, g_sorted: np.ndarray, shape: Tuple[int, ...], target: str
) -> np.ndarray:
    """Reduce a CSR-ordered per-edge gradient back onto an operand of ``shape``."""
    g_part = unbroadcast(g_sorted, (graph.num_edges,) + shape[1:])
    g_part = g_part.astype(np.float32, copy=False)
    if target == "u":
        return scatter_add_rows(g_part, graph.indices, graph.num_src)
    if target == "v":
        # CSR order is destination-contiguous: a segment sum.
        return segment_add_rows(g_part, graph.indptr)
    gx = np.zeros(shape, dtype=np.float32)
    gx[graph.edge_ids] = g_part
    return gx


def gsddmm(
    graph: CSRGraph,
    op: str,
    lhs: Tensor,
    rhs: Optional[Tensor] = None,
    lhs_target: str = "u",
    rhs_target: str = "v",
) -> Tensor:
    """Generalized SDDMM: combine two operands on edges in one fused launch.

    ``out[e] = op(lhs[lhs_target(e)], rhs[rhs_target(e)])`` for every edge,
    in the *original* edge order.  Operands live on source nodes (``u``),
    destination nodes (``v``) or edges (``e``); trailing shapes broadcast
    (e.g. ``(N, H, D)`` against ``(N, H, 1)``).  ``op="dot"`` contracts the
    last axis — features ``(N, H, D)`` yield logits ``(E, H)``; the
    elementwise ops keep the broadcast trailing shape.  ``op="copy_lhs"``
    gathers a single operand to edges (``rhs`` must be omitted).

    This is the DGL-style pairing of :func:`gspmm`: one launch forward, one
    per operand backward, versus the unfused gather + gather + combine chain
    (see ``docs/kernels.md`` for the op/target tables and charging rules).
    """
    if op not in GSDDMM_OPS:
        raise ValueError(f"gsddmm supports {GSDDMM_OPS}, got {op!r}")
    if lhs_target not in GSDDMM_TARGETS or rhs_target not in GSDDMM_TARGETS:
        raise ValueError(f"gsddmm targets must be one of {GSDDMM_TARGETS}")
    if op == "copy_lhs":
        if rhs is not None:
            raise ValueError("gsddmm op 'copy_lhs' takes no rhs operand")
    elif rhs is None:
        raise ValueError(f"gsddmm op {op!r} needs an rhs operand")
    if len(lhs) != _gsddmm_rows(graph, lhs_target):
        raise ValueError(
            f"lhs has {len(lhs)} rows, target {lhs_target!r} expects "
            f"{_gsddmm_rows(graph, lhs_target)}"
        )
    if rhs is not None and len(rhs) != _gsddmm_rows(graph, rhs_target):
        raise ValueError(
            f"rhs has {len(rhs)} rows, target {rhs_target!r} expects "
            f"{_gsddmm_rows(graph, rhs_target)}"
        )

    e = graph.num_edges
    l_sorted = _gsddmm_gather(graph, lhs.data, lhs_target)
    r_sorted = _gsddmm_gather(graph, rhs.data, rhs_target) if rhs is not None else None

    if op == "add":
        sorted_out = l_sorted + r_sorted
    elif op == "sub":
        sorted_out = l_sorted - r_sorted
    elif op == "mul":
        sorted_out = l_sorted * r_sorted
    elif op == "div":
        sorted_out = l_sorted / r_sorted
    elif op == "dot":
        if lhs.shape[-1] != rhs.shape[-1]:
            raise ValueError("gsddmm 'dot' needs matching last-axis sizes")
        sorted_out = (l_sorted * r_sorted).sum(axis=-1)
    else:  # copy_lhs
        sorted_out = l_sorted
    out = np.empty((e,) + sorted_out.shape[1:], dtype=np.float32)
    out[graph.edge_ids] = sorted_out

    if op == "dot":
        feat_dim = int(lhs.shape[-1])
        flops = 2.0 * e * feat_dim
        nbytes = float(_F32 * (2 * e * feat_dim + out.size))
        bw_flops, bw_bytes = 2.0 * e * feat_dim, _F32 * 3.0 * e * feat_dim
    elif op == "copy_lhs":
        flops = 0.0
        nbytes = float(_F32 * (lhs.size + out.size))
        bw_flops, bw_bytes = 0.0, _F32 * 2.0 * out.size
    else:
        flops = float(out.size)
        nbytes = float(_F32 * (lhs.size + rhs.size + out.size))
        bw_flops, bw_bytes = float(out.size), _F32 * 3.0 * out.size
    parents: Tuple[Tensor, ...] = (lhs,) if rhs is None else (lhs, rhs)
    l_shape = lhs.data.shape
    r_shape = None if rhs is None else rhs.data.shape
    if op not in ("mul", "div", "dot"):
        # add / sub / copy_lhs pass the gradient through: nothing to save.
        l_sorted = r_sorted = None

    def backward(grad: np.ndarray):
        launch_backward(f"gsddmm_{op}_backward", bw_flops, bw_bytes)
        g_sorted = grad[graph.edge_ids].astype(np.float32, copy=False)
        if op == "dot":
            g_sorted = np.expand_dims(g_sorted, -1)
        if op in ("add", "sub", "copy_lhs"):
            gl_sorted = g_sorted
        elif op == "div":
            gl_sorted = (g_sorted / r_sorted).astype(np.float32)
        else:  # mul, dot
            gl_sorted = (g_sorted * r_sorted).astype(np.float32)
        gl = _gsddmm_scatter_grad(graph, gl_sorted, l_shape, lhs_target)
        if r_shape is None:
            return (gl,)
        if op == "add":
            gr_sorted = g_sorted
        elif op == "sub":
            gr_sorted = -g_sorted
        elif op == "div":
            gr_sorted = (-g_sorted * l_sorted / (r_sorted * r_sorted)).astype(np.float32)
        else:  # mul, dot
            gr_sorted = (g_sorted * l_sorted).astype(np.float32)
        gr = _gsddmm_scatter_grad(graph, gr_sorted, r_shape, rhs_target)
        return gl, gr

    return make_op(f"gsddmm_{op}", out, parents, backward, flops, nbytes)


def gsddmm_dot(graph: CSRGraph, src_feat: Tensor, dst_feat: Tensor) -> Tensor:
    """Per-edge dot product over the last axis (``gsddmm(graph, "dot", ...)``).

    ``out[e] = sum_d src_feat[src(e), ..., d] * dst_feat[dst(e), ..., d]``,
    keeping any middle axes (e.g. attention heads): features ``(N, H, D)``
    yield logits ``(E, H)``.
    """
    return gsddmm(graph, "dot", src_feat, dst_feat)


def edge_softmax(graph: CSRGraph, logits: Tensor) -> Tensor:
    """Fused edge softmax over the incoming edges of each destination.

    ``logits`` has shape ``(E, ...)`` in original edge order.  Forward is two
    kernels (segment max-subtract-exp, segment sum-divide); backward is two
    more — the fusion the paper contrasts with PyG's six-launch scatter
    composition.  Segment reductions run over the CSR-contiguous row order
    (``segment_add_rows`` and ``np.maximum.reduceat``).
    """
    if len(logits) != graph.num_edges:
        raise ValueError(f"logits have {len(logits)} rows, graph has {graph.num_edges} edges")
    rows = graph.rows
    sorted_logits = logits.data[graph.edge_ids]
    trailing = sorted_logits.shape[1:]

    maxes = _segment_max_csr(sorted_logits, graph.indptr)
    maxes = np.where(np.isfinite(maxes), maxes, 0.0).astype(np.float32, copy=False)
    exp = np.exp(sorted_logits - maxes[rows])
    denom = segment_add_rows(exp, graph.indptr)
    denom = np.maximum(denom, 1e-16)
    sorted_out = (exp / denom[rows]).astype(np.float32, copy=False)
    out = np.empty_like(sorted_out)
    out[graph.edge_ids] = sorted_out
    # The CSR-ordered softmax output is saved for backward (device memory).
    current_device().track(sorted_out)

    flops = 4.0 * out.size
    nbytes = float(_F32 * 3 * out.size)
    # Charge the second fused kernel explicitly (make_op charges the first).
    current_device().launch("edge_softmax_norm", 2.0 * out.size, _F32 * 2.0 * out.size)

    def backward(grad: np.ndarray):
        launch_backward("edge_softmax_backward_accum", 2.0 * grad.size, _F32 * 3.0 * grad.size)
        launch_backward("edge_softmax_backward_norm", 2.0 * grad.size, _F32 * 2.0 * grad.size)
        g_sorted = grad[graph.edge_ids]
        weighted = (g_sorted * sorted_out).astype(np.float32)
        dot = segment_add_rows(weighted, graph.indptr)
        g_logits_sorted = sorted_out * (g_sorted - dot[rows])
        g_logits = np.empty_like(g_logits_sorted)
        g_logits[graph.edge_ids] = g_logits_sorted
        return (g_logits.astype(np.float32),)

    return make_op("edge_softmax", out, (logits,), backward, flops, nbytes)


def _gspmm_max(graph: CSRGraph, x: Tensor, edge_weight: Optional[Tensor]) -> Tensor:
    """Fused max-aggregation GSpMM; empty destinations yield zero.

    Ties share the gradient equally (a valid subgradient), matching the
    scatter-based max reductions.
    """
    e = graph.num_edges
    feat_dim = math.prod(x.shape[1:])
    if edge_weight is not None:
        w_sorted = edge_weight.data[graph.edge_ids]
        msgs = (w_sorted * x.data[graph.indices]).astype(np.float32)
    else:
        w_sorted = None
        msgs = x.data[graph.indices]
    out = _segment_max_csr(msgs, graph.indptr)
    empty = ~np.isfinite(out)
    out = np.where(empty, 0.0, out).astype(np.float32)

    winners = (msgs == out[graph.rows]) & ~empty[graph.rows] if e else np.zeros_like(msgs, bool)
    # Sum of 0/1 indicators: exact in fp32 whatever the reduction order.
    tie_count = np.maximum(segment_add_rows(winners, graph.indptr), 1.0)

    flops = float(e * feat_dim)
    nbytes = float(_F32 * (e * feat_dim + out.size))
    parents: Tuple[Tensor, ...] = (x,) if edge_weight is None else (x, edge_weight)
    device = current_device()
    device.track(msgs)
    x_trailing = x.data.shape[1:]
    # The features are read back only for the weight's gradient.
    w_shape = None if edge_weight is None else edge_weight.data.shape
    x_data = x.data if edge_weight is not None and edge_weight.requires_grad else None

    def backward(grad: np.ndarray):
        launch_backward("gspmm_max_backward", float(e * feat_dim), _F32 * 3.0 * e * feat_dim)
        g_edges = (winners * grad[graph.rows] / tie_count[graph.rows]).astype(np.float32)
        if w_sorted is not None:
            gx_edges = (w_sorted * g_edges).astype(np.float32)
        else:
            gx_edges = g_edges
        gx_edges = unbroadcast(gx_edges, (e,) + x_trailing)
        gx = scatter_add_rows(gx_edges, graph.indices, graph.num_src)
        if w_shape is None:
            return (gx,)
        if x_data is None:
            return (gx, None)
        return (gx, _edge_weight_grad(graph, g_edges, None, x_data, w_shape))

    return make_op("gspmm_max", out, parents, backward, flops, nbytes)
