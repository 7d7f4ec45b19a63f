"""The framework-pack seam: one record per GNN framework.

The paper compares PyG and DGL by driving both through the *same*
protocol; this module is the one place at the training/serving surface
that knows how the two differ — which loader classes to build, how a list
of host graphs becomes one device batch, and what a loader yields
(:mod:`repro.pygx` yields ``Batch`` objects carrying their labels,
:mod:`repro.dglx` yields tuples).  Trainers, the serving registry and the
step-level benches ask :func:`get_pack` for a :class:`Pack` and never
branch on the framework name.  Branches that are *not* about the
loader/model surface stay where they are: :mod:`repro.scale.halo`
(conv-level call convention), :mod:`repro.bench.ops` (kernel lowering).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

#: The framework packs, in the order the paper's tables list them.
FRAMEWORKS = ("pygx", "dglx")


@dataclass(frozen=True)
class Pack:
    """One framework's model/loader surface; same signatures on both packs."""

    #: ``build_model(config, rng)`` -> the pack's network for a ModelConfig.
    build_model: Callable
    #: ``graph_loader(graphs, batch_size, *, shuffle, rng, rank=0,
    #: world_size=1)`` -> mini-batch loader over a list of graphs.
    graph_loader: Callable
    #: ``neighbor_loader(graph, seeds, fanouts, batch_size, *, shuffle, rng,
    #: ensure_self_loops, full_graph_norm)`` -> fanout-sampled loader.
    neighbor_loader: Callable
    #: ``prefetch(loader)`` -> the pack's pipelined ``PrefetchDataLoader``.
    prefetch: Callable
    #: ``collate(samples) -> (inputs, labels)``: one device batch from host
    #: graphs, charged like the collation of one ``graph_loader`` item.
    collate: Callable
    #: ``unpack(item) -> (inputs, labels, *extra)`` for one loader item;
    #: ``extra`` is ``(n_seeds,)`` for neighbor-loader items.
    unpack: Callable
    #: ``collate_host_cost(costs, n_batches, n_graphs)`` -> host seconds of
    #: per-batch and per-graph collation bookkeeping (the part of
    #: ``collate``'s charge that does not scale with bytes).
    collate_host_cost: Callable


def _pygx() -> Pack:
    from repro import pygx

    def collate(samples):
        batch = pygx.loader.collate(samples)
        return batch, batch.y

    def unpack(batch):
        n_seeds = getattr(batch, "n_seeds", None)
        return (batch, batch.y) if n_seeds is None else (batch, batch.y, n_seeds)

    def collate_host_cost(costs, n_batches, n_graphs):
        return n_batches * costs.pyg_batch_base + costs.pyg_batch_per_graph * n_graphs

    return Pack(
        build_model=pygx.build_model,
        graph_loader=pygx.DataLoader,
        neighbor_loader=pygx.NeighborLoader,
        prefetch=pygx.PrefetchDataLoader,
        collate=collate,
        unpack=unpack,
        collate_host_cost=collate_host_cost,
    )


def _dglx() -> Pack:
    from repro import dglx
    from repro.dglx.loader import collate

    def collate_host_cost(costs, n_batches, n_graphs):
        # One node type and one edge type of per-graph bookkeeping.
        per_graph = costs.dgl_batch_per_graph + 2 * costs.dgl_batch_per_type
        return n_batches * costs.dgl_batch_base + per_graph * n_graphs

    return Pack(
        build_model=dglx.build_model,
        graph_loader=dglx.GraphDataLoader,
        neighbor_loader=dglx.NeighborLoader,
        prefetch=dglx.PrefetchDataLoader,
        collate=collate,
        unpack=tuple,  # the loaders already yield (g, labels[, n_seeds])
        collate_host_cost=collate_host_cost,
    )


@lru_cache(maxsize=None)
def get_pack(name: str) -> Pack:
    """The :class:`Pack` for ``name``, importing the framework on first use
    (lazily, so the packs and their callers stay import-acyclic)."""
    builders = {"pygx": _pygx, "dglx": _dglx}
    if name not in builders:
        raise ValueError(f"unknown framework {name!r}; options: {FRAMEWORKS}")
    return builders[name]()
