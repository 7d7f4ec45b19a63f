"""The DGL-style graph object.

Even a homogeneous graph is stored as a *heterograph* with one canonical
node type ``'_N'`` and one edge type ``('_N', '_E', '_N')`` — typed node and
edge frames, per-type metadata, and a per-type batching path.  The paper
identifies exactly this as a source of overhead on the (homogeneous)
benchmark datasets: "all graphs are treated as heterogeneous graphs during
data processing, which brings extra-time loss" (Section IV-C).

Message passing is expressed with builtin function specs
(:mod:`repro.dglx.function`) and lowered onto fused GSpMM/GSDDMM kernels
over a cached CSR representation.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.device import current_device
from repro.dglx.function import EdgeFunc, MessageFunc, ReduceFunc
from repro.graph import GraphSample
from repro.tensor import CSRGraph, gsddmm, gspmm

DEFAULT_NTYPE = "_N"
DEFAULT_ETYPE = ("_N", "_E", "_N")


class Frame(dict):
    """A typed feature frame (node or edge): field name -> Tensor.

    Setting a column goes through DGL's frame bookkeeping (scheme checks,
    column wrapping), charged as host time.
    """

    def __setitem__(self, key, value) -> None:
        current_device().host(current_device().host_costs.dgl_frame_set_overhead)
        super().__setitem__(key, value)


class DGLGraph:
    """Heterograph with one default node/edge type (homogeneous data)."""

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        batch_num_nodes: Optional[np.ndarray] = None,
        batch_num_edges: Optional[np.ndarray] = None,
    ) -> None:
        self._src = np.asarray(src, dtype=np.int64)
        self._dst = np.asarray(dst, dtype=np.int64)
        if self._src.shape != self._dst.shape:
            raise ValueError("src and dst must have the same shape")
        self._num_nodes = int(num_nodes)
        self.ntypes: List[str] = [DEFAULT_NTYPE]
        self.canonical_etypes: List[Tuple[str, str, str]] = [DEFAULT_ETYPE]
        self.ndata: Frame = Frame()
        self.edata: Frame = Frame()
        self._csr: Optional[CSRGraph] = None
        self._batch_num_nodes = (
            np.array([num_nodes], dtype=np.int64)
            if batch_num_nodes is None
            else np.asarray(batch_num_nodes, dtype=np.int64)
        )
        self._batch_num_edges = (
            np.array([len(self._src)], dtype=np.int64)
            if batch_num_edges is None
            else np.asarray(batch_num_edges, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sample(cls, sample: GraphSample) -> "DGLGraph":
        """Wrap one host graph; features are *not* moved to device yet."""
        return cls(sample.edge_index[0], sample.edge_index[1], sample.num_nodes)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        return self._num_nodes

    def num_edges(self) -> int:
        return len(self._src)

    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._src, self._dst

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self._dst, minlength=self._num_nodes)

    def batch_size(self) -> int:
        return len(self._batch_num_nodes)

    def batch_num_nodes(self) -> np.ndarray:
        return self._batch_num_nodes

    def batch_num_edges(self) -> np.ndarray:
        return self._batch_num_edges

    def node_offsets(self) -> np.ndarray:
        """Segment offsets per batched graph (for segment-reduce readout)."""
        return np.concatenate([[0], np.cumsum(self._batch_num_nodes)])

    @property
    def csr(self) -> CSRGraph:
        """Destination-major CSR; built lazily and cached, like DGL formats."""
        if self._csr is None:
            device = current_device()
            # CSR construction is a real kernel in DGL (COOToCSR).
            device.launch(
                "coo_to_csr",
                flops=float(self.num_edges()),
                bytes_moved=16.0 * self.num_edges(),
            )
            self._csr = CSRGraph.from_edge_index(
                self._src, self._dst, self._num_nodes, self._num_nodes
            )
        return self._csr

    # ------------------------------------------------------------------
    # message passing (lowered to fused kernels)
    # ------------------------------------------------------------------
    def update_all(self, message: MessageFunc, reduce: ReduceFunc) -> None:
        """Aggregate messages into ``ndata[reduce.out_field]`` via GSpMM."""
        if message.out_field != reduce.msg_field:
            raise ValueError("message out_field must feed the reduce msg_field")
        # DGL's message-passing scheduler: pattern-match the builtin pair,
        # dispatch per edge type, manage frames.  Pure host time.
        device = current_device()
        device.host(device.host_costs.dgl_update_all_overhead)
        x = self.ndata[message.src_field]
        if message.op == "copy_u":
            out = gspmm(self.csr, x, None, reduce=reduce.op)
        elif message.op == "u_mul_e":
            weight = self.edata[message.edge_field]
            out = gspmm(self.csr, x, weight, reduce=reduce.op)
        else:
            raise ValueError(f"unsupported message op {message.op!r}")
        self.ndata[reduce.out_field] = out

    def apply_edges(self, func: EdgeFunc) -> None:
        """Compute a per-edge value into ``edata[func.out_field]`` (GSDDMM).

        Any ``<lhs>_<binop>_<rhs>`` builtin (``u_add_v``, ``u_dot_v``,
        ``u_mul_e``, ...) lowers onto one fused generalized-GSDDMM launch.
        """
        device = current_device()
        device.host(device.host_costs.dgl_apply_edges_overhead)
        lhs_target, binop, rhs_target = func.targets()
        lhs_frame = self.edata if lhs_target == "e" else self.ndata
        rhs_frame = self.edata if rhs_target == "e" else self.ndata
        self.edata[func.out_field] = gsddmm(
            self.csr,
            binop,
            lhs_frame[func.src_field],
            rhs_frame[func.dst_field],
            lhs_target=lhs_target,
            rhs_target=rhs_target,
        )

    def __repr__(self) -> str:
        return (
            f"DGLGraph(num_nodes={self._num_nodes}, num_edges={self.num_edges()}, "
            f"batch_size={self.batch_size()})"
        )
