"""Framework-neutral graph sample.

Both framework front-ends (:mod:`repro.pygx` and :mod:`repro.dglx`) consume
:class:`GraphSample` objects produced by the dataset generators and convert
them to their own internal representations — exactly the role the on-disk
datasets play for PyG and DGL.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

RngLike = Union[int, np.integer, np.random.Generator, None]


def as_generator(rng: RngLike) -> np.random.Generator:
    """Coerce an ``int`` seed (or ``None``) into a ``numpy`` ``Generator``.

    Loaders and the serving simulator accept either form; passing the same
    seed twice gives two independent generators in the same state, which is
    what reproducible shuffling/arrival traces need.
    """
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng or np.random.default_rng()


class GraphSample:
    """One graph: COO edges, node features, a label, optional coordinates.

    Attributes:
        edge_index: ``(2, E)`` int64 array of directed edges ``src -> dst``.
            Undirected graphs store both directions.
        x: ``(N, F)`` float32 node feature matrix.
        y: graph-level label (int) for graph classification, or ``(N,)``
            int64 node labels for node classification.
        pos: optional ``(N, 2)`` float32 node coordinates (superpixels).
    """

    def __init__(
        self,
        edge_index: np.ndarray,
        x: np.ndarray,
        y,
        pos: Optional[np.ndarray] = None,
    ) -> None:
        edge_index = np.asarray(edge_index, dtype=np.int64)
        if edge_index.ndim != 2 or edge_index.shape[0] != 2:
            raise ValueError(f"edge_index must be (2, E), got {edge_index.shape}")
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 2:
            raise ValueError(f"x must be (N, F), got {x.shape}")
        if edge_index.size and edge_index.max() >= len(x):
            raise ValueError("edge_index refers to nodes beyond len(x)")
        if edge_index.size and edge_index.min() < 0:
            raise ValueError("edge_index contains negative node ids")
        self.edge_index = edge_index
        self.x = x
        self.y = y
        self.pos = None if pos is None else np.asarray(pos, dtype=np.float32)
        if self.pos is not None and len(self.pos) != len(x):
            raise ValueError("pos must have one row per node")

    @property
    def num_nodes(self) -> int:
        return len(self.x)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    @property
    def num_features(self) -> int:
        return self.x.shape[1]

    def in_degrees(self) -> np.ndarray:
        """In-degree of every node."""
        return np.bincount(self.edge_index[1], minlength=self.num_nodes)

    def __repr__(self) -> str:
        return (
            f"GraphSample(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"features={self.num_features})"
        )


def collate_arrays(parts: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
    """One read-only batch array from per-graph parts.

    Several parts are concatenated.  A lone part is not copied: the batch
    gets a fresh read-only view of it, the same bytes under a new array
    object.  Fresh, because the device pool keys a tracked array by its
    identity, so each collation charges its own view and frees it with its
    batch, as it did the copy.  Read-only, because the batch now shares its
    memory with the dataset; every batch is, so a write into one fails on
    a mini-batch exactly as it would on a lone graph.
    """
    out = parts[0].view() if len(parts) == 1 else np.concatenate(parts, axis=axis)
    out.flags.writeable = False
    return out


def collate_labels(labels: Sequence) -> np.ndarray:
    """The labels of a batch: one per graph, or one per node.

    Graph-level labels stack into ``(B,)``.  Per-node label arrays
    concatenate into one label per batched node, in the row order of the
    batch's features, as PyG batches a node-level ``y``; a lone graph's
    labels are then its own (see :func:`collate_arrays`).
    """
    if np.ndim(labels[0]) == 0:
        return np.array(labels)
    return collate_arrays([np.asarray(y) for y in labels])


def undirected_edge_index(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Stack both directions of an undirected edge list into ``(2, 2E)``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    return np.stack(
        [np.concatenate([src, dst]), np.concatenate([dst, src])]
    )


def dedupe_edges(src: np.ndarray, dst: np.ndarray, num_nodes: int):
    """Remove duplicate and self-loop undirected edges; returns (src, dst)."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    keep = lo != hi
    keys = lo[keep] * num_nodes + hi[keep]
    _, unique_idx = np.unique(keys, return_index=True)
    return lo[keep][unique_idx], hi[keep][unique_idx]
