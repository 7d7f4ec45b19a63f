"""Degree-balanced row-block graph partitioning with halo metadata.

Splits a destination-major CSR graph into ``k`` contiguous row blocks cut
at equal points of the *edge* prefix sum (the CSR ``indptr`` is exactly
that prefix sum), the same work-balancing idea as warp-balanced row
blocking in merge-path SpMV/GNN kernels: every part owns a contiguous
destination-node range carrying ~``E/k`` in-edges, regardless of how
skewed the degree distribution is.

Each part records its *halo* — the ghost source nodes outside the owned
range referenced by its in-edges — which is precisely the set of feature
rows a per-partition execution must fetch from other parts before it can
aggregate (the halo exchange of :mod:`repro.scale.halo`).  The whole
construction is a deterministic function of the graph: no RNG, so a fixed
generator seed always yields the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph.big_graph import CSRBigGraph


@dataclass(frozen=True)
class Part:
    """One partition: owned destination rows ``[lo, hi)`` plus ghosts."""

    part_id: int
    lo: int
    hi: int
    #: Sorted global ids of ghost source nodes outside ``[lo, hi)`` that
    #: the part's in-edges reference.
    halo: np.ndarray
    #: In-edges owned by this part (all edges whose destination it owns).
    num_edges: int
    #: Owned in-edges whose source lies outside the owned range.
    cut_edges: int

    @property
    def num_owned(self) -> int:
        return self.hi - self.lo

    @property
    def num_local(self) -> int:
        """Owned plus ghost nodes — the part's working-set node count."""
        return self.num_owned + len(self.halo)

@dataclass(frozen=True)
class PartitionStats:
    """Balance/communication summary of one partition."""

    k: int
    edge_counts: Tuple[int, ...]
    node_counts: Tuple[int, ...]
    halo_counts: Tuple[int, ...]
    cut_edges: int
    #: max / mean of per-part edge counts (1.0 = perfectly balanced).
    edge_balance: float
    #: sum of per-part (owned + halo) node counts over total nodes: how
    #: many times the average feature row is materialised.
    replication_factor: float


class Partition:
    """A k-way row-block partition of a :class:`CSRBigGraph`."""

    def __init__(self, graph: CSRBigGraph, parts: List[Part]) -> None:
        self.graph = graph
        self.parts = parts

    @property
    def k(self) -> int:
        return len(self.parts)

    def assignment(self) -> np.ndarray:
        """Owning part id per node (every node is in exactly one part)."""
        out = np.empty(self.graph.num_nodes, dtype=np.int64)
        for part in self.parts:
            out[part.lo:part.hi] = part.part_id
        return out

    def stats(self) -> PartitionStats:
        edge_counts = tuple(p.num_edges for p in self.parts)
        node_counts = tuple(p.num_owned for p in self.parts)
        halo_counts = tuple(len(p.halo) for p in self.parts)
        mean_edges = max(sum(edge_counts) / max(len(self.parts), 1), 1e-12)
        total_nodes = max(self.graph.num_nodes, 1)
        return PartitionStats(
            k=self.k,
            edge_counts=edge_counts,
            node_counts=node_counts,
            halo_counts=halo_counts,
            cut_edges=sum(p.cut_edges for p in self.parts),
            edge_balance=max(edge_counts, default=0) / mean_edges,
            replication_factor=sum(p.num_local for p in self.parts) / total_nodes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition(k={self.k}, num_nodes={self.graph.num_nodes})"


def _cut_points(indptr: np.ndarray, num_nodes: int, k: int) -> np.ndarray:
    """Strictly increasing row bounds ``b[0]=0 < ... < b[k]=num_nodes``.

    Interior bounds sit where the edge prefix sum crosses ``i * E / k``,
    then get nudged (at most one row at a time) so no part is empty —
    required for the every-node-in-exactly-one-part invariant even on
    pathological degree distributions.
    """
    total_edges = int(indptr[-1])
    targets = np.arange(1, k) * (total_edges / k)
    bounds = np.searchsorted(indptr, targets, side="left")
    bounds = np.concatenate([[0], bounds, [num_nodes]]).astype(np.int64)
    for i in range(1, k + 1):
        bounds[i] = max(bounds[i], bounds[i - 1] + 1)
    bounds[k] = num_nodes
    for i in range(k - 1, 0, -1):
        bounds[i] = min(bounds[i], bounds[i + 1] - 1)
    return bounds


def degree_balanced_partition(graph: CSRBigGraph, k: int) -> Partition:
    """Partition ``graph`` into ``k`` degree-balanced contiguous row blocks.

    ``k`` larger than the node count is clamped (each part then owns one
    node); ``k < 1`` is an error.  The result is deterministic — identical
    for every call on the same graph.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    n = graph.num_nodes
    if n == 0:
        return Partition(graph, [])
    k = min(k, n)
    bounds = _cut_points(graph.indptr, n, k)

    parts: List[Part] = []
    for part_id in range(k):
        lo, hi = int(bounds[part_id]), int(bounds[part_id + 1])
        e_lo, e_hi = int(graph.indptr[lo]), int(graph.indptr[hi])
        sources = graph.indices[e_lo:e_hi]
        outside = (sources < lo) | (sources >= hi)
        parts.append(
            Part(
                part_id=part_id,
                lo=lo,
                hi=hi,
                halo=np.unique(sources[outside]),
                num_edges=e_hi - e_lo,
                cut_edges=int(outside.sum()),
            )
        )
    return Partition(graph, parts)
