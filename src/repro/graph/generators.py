"""Random graph structure generators used by the synthetic datasets.

Each generator returns an undirected edge list ``(src, dst)`` with
``src < dst`` per edge and no duplicates; callers expand to both directions
with :func:`repro.graph.graph.undirected_edge_index`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.graph import dedupe_edges

_EMPTY = np.empty(0, dtype=np.int64)


def planted_partition(
    labels: np.ndarray,
    n_edges: int,
    intra_fraction: float,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """Community graph: ``intra_fraction`` of edges stay within a class.

    Used for the synthetic citation networks — real Cora/PubMed are strongly
    homophilous, which is what lets GNN message passing help classification.

    The intra-class endpoints are drawn with one grouped ``rng.choice`` per
    class over argsort-grouped slots rather than a boolean mask per class,
    which keeps the cost at ``O(n log n)`` instead of ``O(classes * n)``
    while consuming the RNG stream in exactly the same order as the
    historical per-class-mask loop (seeded outputs are identical).
    """
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError("intra_fraction must be in [0, 1]")
    labels = np.asarray(labels)
    n = len(labels)
    if n == 0 or n_edges <= 0:
        return _EMPTY, _EMPTY
    n_intra = int(n_edges * intra_fraction)
    by_class = [np.flatnonzero(labels == c) for c in np.unique(labels)]
    class_sizes = np.array([len(ix) for ix in by_class], dtype=np.float64)
    class_prob = class_sizes / class_sizes.sum()

    # Intra-class endpoints: pick a class by size, then two members.  The
    # stable argsort groups the slots of each class contiguously in the same
    # positions the per-class masks used to address, so one vectorised
    # choice per class fills them without scanning all slots per class.
    classes = rng.choice(len(by_class), size=n_intra, p=class_prob)
    order = np.argsort(classes, kind="stable")
    counts = np.bincount(classes, minlength=len(by_class))
    starts = np.concatenate([[0], np.cumsum(counts)])
    src_sorted = np.empty(n_intra, dtype=np.int64)
    dst_sorted = np.empty(n_intra, dtype=np.int64)
    for c, members in enumerate(by_class):
        count = int(counts[c])
        if count == 0:
            continue
        lo, hi = starts[c], starts[c + 1]
        src_sorted[lo:hi] = rng.choice(members, size=count)
        dst_sorted[lo:hi] = rng.choice(members, size=count)
    src_intra = np.empty(n_intra, dtype=np.int64)
    dst_intra = np.empty(n_intra, dtype=np.int64)
    src_intra[order] = src_sorted
    dst_intra[order] = dst_sorted

    n_inter = n_edges - n_intra
    src_inter = rng.integers(0, n, size=n_inter)
    dst_inter = rng.integers(0, n, size=n_inter)

    src = np.concatenate([src_intra, src_inter])
    dst = np.concatenate([dst_intra, dst_inter])
    return dedupe_edges(src, dst, n)


def _first_occurrence_unique(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each key, in arrival order."""
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def rmat_edges(
    n_nodes: int,
    n_edges: int,
    rng: np.random.Generator,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> Tuple[np.ndarray, np.ndarray]:
    """Seeded R-MAT directed edge list (Graph500-style recursive quadrants).

    Each edge picks one quadrant per bit level with probabilities
    ``(a, b, c, d=1-a-b-c)``; the defaults are the Graph500 parameters.
    Fully vectorised per level — the working set is ``O(n_edges)`` and no
    dense adjacency is ever materialised, so million-node/edge graphs
    generate in seconds.  Self loops and duplicates are rejected and
    generation rounds repeat (deterministically, on the same ``rng``
    stream) until ``n_edges`` unique directed edges exist; the surviving
    edges are kept in first-arrival order, so a fixed seed always yields
    the same graph.

    The recursion concentrates mass near the diagonal and at low node ids,
    giving the power-law degrees and id-locality (low ids are hubs, and
    nearby ids are more likely to connect) of web/social graphs.
    """
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0 or a <= 0:
        raise ValueError(f"invalid R-MAT quadrant probabilities ({a}, {b}, {c})")
    if n_nodes <= 1 or n_edges <= 0:
        return _EMPTY, _EMPTY
    if n_edges > n_nodes * (n_nodes - 1):
        raise ValueError(
            f"cannot place {n_edges} unique directed edges on {n_nodes} nodes"
        )
    scale = max(int(np.ceil(np.log2(n_nodes))), 1)

    keys = _EMPTY
    # Oversample to absorb out-of-range endpoints (when n_nodes is not a
    # power of two), self loops and duplicates; a handful of rounds
    # converges for sparse graphs.
    for _ in range(200):
        need = n_edges - len(keys)
        if need <= 0:
            break
        m = int(need * 1.5) + 64
        src = np.zeros(m, dtype=np.int64)
        dst = np.zeros(m, dtype=np.int64)
        for _level in range(scale):
            u = rng.random(m)
            src_bit = u >= a + b  # quadrants c and d
            dst_bit = ((u >= a) & (u < a + b)) | (u >= a + b + c)  # b and d
            src = (src << 1) | src_bit
            dst = (dst << 1) | dst_bit
        keep = (src < n_nodes) & (dst < n_nodes) & (src != dst)
        new_keys = src[keep] * n_nodes + dst[keep]
        keys = np.concatenate([keys, new_keys])
        keys = keys[_first_occurrence_unique(keys)]
    keys = keys[:n_edges]
    return keys // n_nodes, keys % n_nodes


def connected_chain_backbone(n_nodes: int, rng: np.random.Generator):
    """A random spanning chain guaranteeing connectivity."""
    order = rng.permutation(n_nodes)
    return order[:-1].astype(np.int64), order[1:].astype(np.int64)


def ring_motif(offset: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cycle over nodes ``offset .. offset+size-1``."""
    ids = np.arange(offset, offset + size, dtype=np.int64)
    return ids, np.roll(ids, -1)


def clique_motif(offset: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Complete subgraph over ``size`` nodes starting at ``offset``."""
    ids = np.arange(offset, offset + size, dtype=np.int64)
    src, dst = np.triu_indices(size, k=1)
    return ids[src], ids[dst]


def star_motif(offset: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Hub-and-spoke subgraph over ``size`` nodes starting at ``offset``."""
    ids = np.arange(offset, offset + size, dtype=np.int64)
    return np.full(size - 1, ids[0], dtype=np.int64), ids[1:]


def knn_edges(points: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Undirected k-nearest-neighbour edges over 2-D ``points``."""
    n = len(points)
    if n <= 1:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    k = min(k, n - 1)
    diff = points[:, None, :] - points[None, :, :]
    dist = np.square(diff).sum(axis=-1)
    np.fill_diagonal(dist, np.inf)
    neighbours = np.argpartition(dist, k - 1, axis=1)[:, :k]
    src = np.repeat(np.arange(n, dtype=np.int64), k)
    dst = neighbours.reshape(-1).astype(np.int64)
    return dedupe_edges(src, dst, n)
