"""Host-resident CSR graph container for million-node graphs.

``CSRBigGraph`` stores adjacency in destination-major CSR form — the
in-neighbours of node ``v`` are ``indices[indptr[v]:indptr[v+1]]`` — plus
optional node features and labels.  Everything lives in host memory as
plain numpy; no dense ``(N, N)`` intermediate is ever built, so a
million-node graph with tens of millions of edges costs a few hundred MB.
The scale subsystem (:mod:`repro.scale`) samples, partitions and trains
from this structure; only sampled sub-batches or single partitions are
ever transferred to the simulated device.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class CSRBigGraph:
    """Destination-major CSR adjacency with optional features/labels.

    Parameters
    ----------
    indptr : (num_nodes + 1,) int64 row pointers over destination nodes.
    indices : (num_edges,) int64 source-node ids, grouped by destination.
    x : optional (num_nodes, num_features) float32 node features.
    y : optional (num_nodes,) int64 node labels.
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or len(indptr) < 1:
            raise ValueError("indptr must be a 1-D array of length num_nodes + 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("indptr must start at 0 and end at num_edges")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        n = len(indptr) - 1
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices reference nodes outside [0, num_nodes)")
        if x is not None:
            x = np.ascontiguousarray(x, dtype=np.float32)
            if x.ndim != 2 or len(x) != n:
                raise ValueError("x must be (num_nodes, num_features)")
        if y is not None:
            y = np.ascontiguousarray(y, dtype=np.int64)
            if y.shape != (n,):
                raise ValueError("y must be (num_nodes,)")
        self.indptr = indptr
        self.indices = indices
        self.x = x
        self.y = y

    # -- construction ---------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_nodes: int,
        x: Optional[np.ndarray] = None,
        y: Optional[np.ndarray] = None,
    ) -> "CSRBigGraph":
        """Build from a directed COO edge list via a stable counting sort.

        Every edge is mirrored (and the union deduplicated) so message
        passing sees an undirected graph, which is what the citation-style
        node-classification tasks assume.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if len(src):
            s = np.concatenate([src, dst])
            d = np.concatenate([dst, src])
            keys = s * num_nodes + d
            keep = np.unique(keys, return_index=True)[1]
            src, dst = s[keep], d[keep]
        order = np.argsort(dst, kind="stable")
        indices = src[order]
        counts = np.bincount(dst, minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices, x=x, y=y)

    # -- shape ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    @property
    def num_features(self) -> int:
        return 0 if self.x is None else self.x.shape[1]

    # -- structure ------------------------------------------------------

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def edge_index(self) -> np.ndarray:
        """Materialise the ``(2, E)`` COO edge index (src row 0, dst row 1).

        This is ``O(E)`` memory — fine for smoke-scale graphs and the
        full-graph parity baselines, but deliberately *not* used on the
        million-node path.
        """
        dst = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                        np.diff(self.indptr))
        return np.stack([self.indices, dst])

    def nbytes(self) -> int:
        """Host bytes held by structure plus features/labels."""
        total = self.indptr.nbytes + self.indices.nbytes
        if self.x is not None:
            total += self.x.nbytes
        if self.y is not None:
            total += self.y.nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CSRBigGraph(num_nodes={self.num_nodes}, "
                f"num_edges={self.num_edges}, "
                f"num_features={self.num_features})")


def gather_rows(x: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Contiguous float32 feature rows for ``nodes`` (host-side gather)."""
    return np.ascontiguousarray(x[nodes], dtype=np.float32)
