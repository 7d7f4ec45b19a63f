"""Full multi-type heterograph support.

:class:`repro.dglx.heterograph.DGLGraph` covers the homogeneous case the
paper's datasets need (one node type, one edge type).  This module provides
the general form DGL actually implements — named node types, canonical edge
types ``(src_type, relation, dst_type)``, per-type frames and per-relation
message passing — which is precisely the machinery whose bookkeeping the
homogeneous graphs still pay for during batching (Section IV-C).

The ``ablation_heterograph_types`` record uses this class to
show the batching cost growing with the number of types even when the
underlying structure is identical.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.device import current_device
from repro.dglx.function import MessageFunc, ReduceFunc
from repro.dglx.heterograph import Frame
from repro.graph.graph import collate_arrays
from repro.tensor import CSRGraph, Tensor, gspmm

CanonicalEtype = Tuple[str, str, str]


class HeteroDGLGraph:
    """A graph with typed nodes and typed (relation) edges."""

    def __init__(
        self,
        num_nodes: Mapping[str, int],
        edges: Mapping[CanonicalEtype, Tuple[np.ndarray, np.ndarray]],
    ) -> None:
        if not num_nodes:
            raise ValueError("need at least one node type")
        self._num_nodes: Dict[str, int] = {k: int(v) for k, v in num_nodes.items()}
        self._edges: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}
        for etype, (src, dst) in edges.items():
            src_type, _, dst_type = etype
            if src_type not in self._num_nodes or dst_type not in self._num_nodes:
                raise ValueError(f"edge type {etype} references unknown node type")
            src = np.asarray(src, dtype=np.int64)
            dst = np.asarray(dst, dtype=np.int64)
            if src.shape != dst.shape:
                raise ValueError(f"src/dst mismatch for {etype}")
            self._edges[etype] = (src, dst)
        self.nodes_frames: Dict[str, Frame] = {t: Frame() for t in self._num_nodes}
        self.edges_frames: Dict[CanonicalEtype, Frame] = {e: Frame() for e in self._edges}
        self._csr: Dict[CanonicalEtype, CSRGraph] = {}

    # ------------------------------------------------------------------
    @property
    def ntypes(self) -> List[str]:
        return list(self._num_nodes)

    @property
    def canonical_etypes(self) -> List[CanonicalEtype]:
        return list(self._edges)

    def num_nodes(self, ntype: str) -> int:
        return self._num_nodes[ntype]

    def num_edges(self, etype: CanonicalEtype) -> int:
        return len(self._edges[etype][0])

    def ndata(self, ntype: str) -> Frame:
        """The feature frame of one node type."""
        return self.nodes_frames[ntype]

    def edata(self, etype: CanonicalEtype) -> Frame:
        """The feature frame of one edge type."""
        return self.edges_frames[etype]

    def csr(self, etype: CanonicalEtype) -> CSRGraph:
        """Per-relation CSR, built lazily (one format set per relation)."""
        if etype not in self._csr:
            src_type, _, dst_type = etype
            src, dst = self._edges[etype]
            current_device().launch(
                "coo_to_csr", flops=float(len(src)), bytes_moved=16.0 * len(src)
            )
            self._csr[etype] = CSRGraph.from_edge_index(
                src, dst, self._num_nodes[src_type], self._num_nodes[dst_type]
            )
        return self._csr[etype]

    # ------------------------------------------------------------------
    def update_all(
        self,
        message: MessageFunc,
        reduce: ReduceFunc,
        etype: Optional[CanonicalEtype] = None,
    ) -> None:
        """Message passing over one relation (or the only one).

        Output lands in the destination type's frame under
        ``reduce.out_field``; multi-relation aggregation composes these
        calls, as DGL's ``multi_update_all`` does.
        """
        if etype is None:
            if len(self._edges) != 1:
                raise ValueError("etype is required for a multi-relation graph")
            etype = next(iter(self._edges))
        if message.out_field != reduce.msg_field:
            raise ValueError("message out_field must feed the reduce msg_field")
        device = current_device()
        device.host(device.host_costs.dgl_update_all_overhead)
        src_type, _, dst_type = etype
        x = self.nodes_frames[src_type][message.src_field]
        if message.op == "copy_u":
            out = gspmm(self.csr(etype), x, None, reduce=reduce.op)
        elif message.op == "u_mul_e":
            weight = self.edges_frames[etype][message.edge_field]
            out = gspmm(self.csr(etype), x, weight, reduce=reduce.op)
        else:
            raise ValueError(f"unsupported message op {message.op!r}")
        self.nodes_frames[dst_type][reduce.out_field] = out


def batch_hetero(graphs: Sequence[HeteroDGLGraph]) -> HeteroDGLGraph:
    """Batch heterographs into one, paying per-type bookkeeping.

    This is the general batching path whose per-type cost the homogeneous
    :func:`repro.dglx.batch.batch` models with one node and one edge type;
    here the cost is charged per *actual* type, so richer type vocabularies
    collate proportionally slower.
    """
    if not graphs:
        raise ValueError("cannot batch an empty list of graphs")
    first = graphs[0]
    ntypes = first.ntypes
    etypes = first.canonical_etypes
    for g in graphs:
        if g.ntypes != ntypes or g.canonical_etypes != etypes:
            raise ValueError("all graphs must share the same type schema")

    device = current_device()
    costs = device.host_costs
    device.host(
        costs.dgl_batch_base
        + costs.dgl_batch_per_graph * len(graphs)
        + costs.dgl_batch_per_type * len(graphs) * (len(ntypes) + len(etypes))
    )

    num_nodes: Dict[str, int] = {t: 0 for t in ntypes}
    offsets: List[Dict[str, int]] = []
    for g in graphs:
        offsets.append(dict(num_nodes))
        for t in ntypes:
            num_nodes[t] += g.num_nodes(t)

    edges: Dict[CanonicalEtype, Tuple[np.ndarray, np.ndarray]] = {}
    total_bytes = 0
    for etype in etypes:
        src_type, _, dst_type = etype
        src_parts, dst_parts = [], []
        for g, off in zip(graphs, offsets):
            src, dst = g._edges[etype]
            src_parts.append(src + off[src_type] if off[src_type] else src)
            dst_parts.append(dst + off[dst_type] if off[dst_type] else dst)
        src_cat = collate_arrays(src_parts)
        dst_cat = collate_arrays(dst_parts)
        total_bytes += src_cat.nbytes + dst_cat.nbytes
        edges[etype] = (src_cat, dst_cat)

    batched = HeteroDGLGraph(num_nodes, edges)
    # Concatenate per-type node feature frames present on every graph.
    for t in ntypes:
        common = set(graphs[0].nodes_frames[t])
        for g in graphs[1:]:
            common &= set(g.nodes_frames[t])
        for field in common:
            arrays = [g.nodes_frames[t][field].data for g in graphs]
            stacked = collate_arrays(arrays)
            total_bytes += stacked.nbytes
            batched.nodes_frames[t][field] = Tensor(stacked)
    device.host(costs.batch_per_byte * total_bytes)
    device.transfer(total_bytes)
    return batched


def as_k_type_graph(
    edge_index: np.ndarray, x: np.ndarray, k: int, rng: np.random.Generator
) -> HeteroDGLGraph:
    """Recast a homogeneous graph as a ``k``-relation heterograph.

    Nodes keep one type; edges are partitioned randomly into ``k``
    relations.  Used by the heterograph-tax ablation: the represented graph
    is identical, only the type vocabulary grows.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    src, dst = np.asarray(edge_index[0]), np.asarray(edge_index[1])
    assignment = rng.integers(0, k, size=len(src))
    edges = {
        ("_N", f"rel{i}", "_N"): (src[assignment == i], dst[assignment == i])
        for i in range(k)
    }
    g = HeteroDGLGraph({"_N": len(x)}, edges)
    g.ndata("_N")["feat"] = Tensor(np.asarray(x, dtype=np.float32))
    return g
