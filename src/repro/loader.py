"""The framework-neutral half of mini-batch loading.

The paper puts the PyG/DGL loading gap in *collation* —
``Batch.from_data_list`` against DGL's per-type ``dglx.batch`` (Section
IV-C, Figs. 1-2).  Everything around collation is the same in both
frameworks and lives here once: :class:`GraphLoader` (the epoch loop over
a list of graphs), :class:`SeedLoader` (the loop over seed-node chunks of
one large graph) and :func:`loading` (the ``data_loading`` phase with the
per-graph fetch charge).  A pack's loader subclasses a loop and supplies
only its collation.

Sharding.  Distributed data parallelism needs each replica to see a
disjoint, equal-sized slice of every epoch's (possibly shuffled) sample
order.  The graph loop draws the full permutation as usual, truncates it
to the largest multiple of ``world_size`` (drop-remainder, so shards stay
equal and optimizer steps stay in lockstep), and strides it by rank::

    shard(rank) = order[: (n // world) * world][rank :: world]

Given identically seeded loader RNGs on every replica, all replicas draw
the *same* permutation, so the strided shards are disjoint and cover the
truncated epoch exactly once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence

import numpy as np

from repro.device import Device, current_device
from repro.graph.big_graph import CSRBigGraph
from repro.graph.graph import RngLike, as_generator
from repro.scale.sample import NeighborSampler, SampledSubgraph


def check_shard(n: int, rank: int, world_size: int) -> int:
    """Validate sharding arguments against ``n`` samples; returns shard size.

    Raises ``ValueError`` eagerly at loader construction when the shard
    would be empty.
    """
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if not 0 <= rank < world_size:
        raise ValueError(f"rank must be in [0, {world_size - 1}], got {rank}")
    shard_len = n // world_size
    if shard_len == 0 and world_size > 1:
        # An unsharded loader over zero graphs stays legal (it yields
        # nothing); an *empty shard* under data parallelism means the
        # replica would silently sit out every step — error eagerly.
        raise ValueError(
            f"world_size={world_size} would yield an empty shard "
            f"over {n} graphs"
        )
    return shard_len


def shard_order(order: np.ndarray, rank: int, world_size: int) -> np.ndarray:
    """Rank's slice of a sample order (drop-remainder, stride-by-rank)."""
    if world_size == 1:
        return order
    n_even = (len(order) // world_size) * world_size
    return order[:n_even][rank::world_size]


@contextmanager
def loading(device: Device, n_graphs: int) -> Iterator[None]:
    """Collation of ``n_graphs`` graphs: the ``data_loading`` phase, opened
    with the per-graph fetch charge.  Trainers read the Fig. 1/2 loading
    share from this phase."""
    with device.clock.phase("data_loading"):
        device.host(device.host_costs.fetch_per_graph * n_graphs)
        yield


def _check_batch_size(batch_size: int) -> None:
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")


class GraphLoader:
    """The epoch loop over a list of graphs; a subclass supplies collation.

    With ``world_size > 1`` the loader yields only replica ``rank``'s
    shard of each epoch's order (see the module docstring): identically
    seeded RNGs on all replicas give disjoint, equal-sized,
    drop-remainder shards.
    """

    def __init__(
        self,
        graphs: Sequence,
        batch_size: int,
        shuffle: bool = False,
        rng: RngLike = None,
        rank: int = 0,
        world_size: int = 1,
    ) -> None:
        _check_batch_size(batch_size)
        self.graphs: List = list(graphs)
        self._shard_len = check_shard(len(self.graphs), rank, world_size)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = as_generator(rng)
        self.rank = rank
        self.world_size = world_size

    def __len__(self) -> int:
        return (self._shard_len + self.batch_size - 1) // self.batch_size

    def _epoch(self, collate: Callable[[list], object]) -> Iterator:
        """One epoch: ``collate(graphs)`` per batch under :func:`loading`."""
        device = current_device()
        order = np.arange(len(self.graphs))
        if self.shuffle:
            order = self.rng.permutation(len(self.graphs))
        order = shard_order(order, self.rank, self.world_size)
        for start in range(0, len(order), self.batch_size):
            indices = order[start : start + self.batch_size]
            with loading(device, len(indices)):
                batch = collate([self.graphs[i] for i in indices])
            yield batch


class SeedLoader:
    """The epoch loop over seed-node chunks of a CSR-backed large graph.

    Each chunk is fanout-sampled (charged under ``"sampling"`` by the
    sampler), then handed to the subclass's ``_collate`` under the
    ``data_loading`` phase; model output rows ``[:n_seeds]`` line up with
    the chunk's labels.
    """

    def __init__(
        self,
        graph: CSRBigGraph,
        seeds: np.ndarray,
        fanouts: Sequence[int],
        batch_size: int,
        shuffle: bool = False,
        rng: RngLike = None,
        labels: Optional[np.ndarray] = None,
        ensure_self_loops: bool = False,
        full_graph_norm: bool = False,
    ) -> None:
        _check_batch_size(batch_size)
        if labels is None:
            labels = graph.y
        if labels is None:
            raise ValueError("graph has no labels; pass labels= explicitly")
        self.graph = graph
        self.seeds = np.asarray(seeds, dtype=np.int64)
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = as_generator(rng)
        self.labels = np.asarray(labels)
        self.ensure_self_loops = ensure_self_loops
        self.full_graph_norm = full_graph_norm
        self.sampler = NeighborSampler(graph, fanouts, rng=self.rng)

    def __len__(self) -> int:
        return (len(self.seeds) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator:
        device = current_device()
        fetch_per_seed = device.host_costs.fetch_per_graph
        order = np.arange(len(self.seeds))
        if self.shuffle:
            order = self.rng.permutation(len(self.seeds))
        for start in range(0, len(order), self.batch_size):
            chunk = self.seeds[order[start:start + self.batch_size]]
            sub = self.sampler.sample(chunk)  # charged under "sampling"
            src, dst = sub.src, sub.dst
            if self.ensure_self_loops:
                # add_self_loop after sampling: fanout truncation must not
                # randomly drop a hub's own feature (dglx GraphConv has no
                # built-in self-loops), or the sampled training regime
                # diverges from full-graph inference.
                keep = src != dst
                loops = np.arange(sub.num_nodes, dtype=np.int64)
                src = np.concatenate([src[keep], loops])
                dst = np.concatenate([dst[keep], loops])
            with device.clock.phase("data_loading"):
                item = self._collate(device, fetch_per_seed * len(chunk),
                                     chunk, sub, src, dst)
            yield item

    def _collate(self, device: Device, fetch: float, chunk: np.ndarray,
                 sub: SampledSubgraph, src: np.ndarray, dst: np.ndarray):
        """One loader item from a sampled chunk, charged on ``device``.

        ``fetch`` is the chunk's per-seed fetch charge; the pack adds its
        byte and construction costs to it in *one* ``device.host`` call.
        """
        raise NotImplementedError
