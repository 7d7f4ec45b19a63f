"""GraphSAGE-style fanout neighbor sampling over CSR.

Builds per-layer *blocks* (bipartite message-passing subgraphs, DGL
style) or one merged subgraph (PyG ``NeighborLoader`` style) from a
:class:`~repro.graph.big_graph.CSRBigGraph`, with a seeded RNG so every
mini-batch sequence is reproducible.  Per hop, nodes whose in-degree is
at most the fanout keep *all* their in-edges; higher-degree nodes draw
``fanout`` neighbours with replacement — both paths fully vectorised.

Sampling is host work; each call charges the
:class:`~repro.device.HostCostModel` sampling costs under the clock's
``"sampling"`` phase, so sampled-training epochs attribute sampler time
separately from data loading and compute (the breakdown the
magnifying-glass characterisation of GNN frameworks highlights).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.device import current_device
from repro.graph.big_graph import CSRBigGraph
from repro.graph.graph import RngLike, as_generator


@dataclass(frozen=True)
class SampledSubgraph:
    """Merged union subgraph of all hops, seeds first (PyG convention).

    ``nodes`` are global ids; position is the local id and the first
    ``n_seeds`` entries are the seed nodes in their given order, so a
    model's output rows ``[:n_seeds]`` line up with the seed labels.
    """

    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    n_seeds: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.src)


def _locate(nodes: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Positions of ``queries`` within ``nodes`` (every query present)."""
    sorter = np.argsort(nodes, kind="stable")
    pos = np.searchsorted(nodes, queries, sorter=sorter)
    return sorter[pos].astype(np.int64)


def sample_in_edges(
    graph: CSRBigGraph,
    nodes: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One hop of fanout sampling: in-edges ``(src, dst)`` in global ids.

    Nodes with in-degree ``<= fanout`` contribute every in-edge; others
    contribute ``fanout`` draws with replacement (one vectorised uniform
    block per hop, so the RNG stream depends only on the frontier and
    fanout — deterministic for a fixed seed).
    """
    if fanout < 0:
        raise ValueError(f"fanout must be non-negative, got {fanout}")
    nodes = np.asarray(nodes, dtype=np.int64)
    indptr, indices = graph.indptr, graph.indices
    deg = indptr[nodes + 1] - indptr[nodes]

    small_mask = deg <= fanout
    small, sdeg = nodes[small_mask], deg[small_mask]
    total = int(sdeg.sum())
    if total:
        starts = indptr[small]
        before = np.concatenate([[0], np.cumsum(sdeg)[:-1]])
        flat = np.repeat(starts - before, sdeg) + np.arange(total)
        src_small = indices[flat]
        dst_small = np.repeat(small, sdeg)
    else:
        src_small = dst_small = np.empty(0, dtype=np.int64)

    large, ldeg = nodes[~small_mask], deg[~small_mask]
    if len(large):
        draws = rng.random((len(large), fanout))
        pick = (draws * ldeg[:, None]).astype(np.int64)
        flat = (indptr[large][:, None] + pick).ravel()
        src_large = indices[flat]
        dst_large = np.repeat(large, fanout)
    else:
        src_large = dst_large = np.empty(0, dtype=np.int64)

    return (np.concatenate([src_small, src_large]),
            np.concatenate([dst_small, dst_large]))


class NeighborSampler:
    """Seeded multi-hop fanout sampler over a CSR graph.

    ``fanouts`` are per message-passing layer, *seed side first*: the
    first fanout expands the seeds (feeding the network's last conv), the
    next expands that frontier, and so on — ``len(fanouts)`` must equal
    the model depth for every layer to see sampled support.
    """

    def __init__(
        self,
        graph: CSRBigGraph,
        fanouts: Sequence[int],
        rng: RngLike = None,
    ) -> None:
        if not len(fanouts):
            raise ValueError("need at least one fanout")
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self.rng = as_generator(rng)

    # ------------------------------------------------------------------
    def _charge(self, n_seeds: int, n_edges: int) -> None:
        device = current_device()
        costs = device.host_costs
        with device.clock.phase("sampling"):
            device.host(
                costs.sample_base
                + costs.sample_per_seed * n_seeds
                + costs.sample_per_edge * n_edges
            )

    def _hops(self, seeds: np.ndarray) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], List[np.ndarray]]:
        """All hops' (src, dst) global edges plus the frontier per hop."""
        frontier = seeds
        hop_edges: List[Tuple[np.ndarray, np.ndarray]] = []
        frontiers: List[np.ndarray] = [frontier]
        for fanout in self.fanouts:
            src, dst = sample_in_edges(self.graph, frontier, fanout, self.rng)
            hop_edges.append((src, dst))
            frontier = np.unique(np.concatenate([frontier, src]))
            frontiers.append(frontier)
        return hop_edges, frontiers

    def sample(self, seeds: np.ndarray) -> SampledSubgraph:
        """Merged union subgraph of all hops, seeds first (PyG style).

        A model running ``len(fanouts)`` conv layers over the merged
        subgraph sees full sampled support for its seed-row outputs; loss
        and metrics read rows ``[:n_seeds]``.
        """
        seeds = np.asarray(seeds, dtype=np.int64)
        hop_edges, frontiers = self._hops(seeds)
        union = frontiers[-1]
        others = np.setdiff1d(union, seeds)
        nodes = np.concatenate([seeds, others])
        src = np.concatenate([s for s, _ in hop_edges])
        dst = np.concatenate([d for _, d in hop_edges])
        # The same edge can be drawn by several hops (or twice within a
        # with-replacement draw); keep one copy so message passing does
        # not double-count.
        keys = src * self.graph.num_nodes + dst
        keep = np.unique(keys, return_index=True)[1]
        src, dst = src[keep], dst[keep]
        self._charge(len(seeds), len(src))
        return SampledSubgraph(
            nodes=nodes,
            src=_locate(nodes, src),
            dst=_locate(nodes, dst),
            n_seeds=len(seeds),
        )
