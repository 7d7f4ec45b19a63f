"""PyG-style ``NeighborLoader`` over a CSR-backed large graph.

Mirrors ``torch_geometric.loader.NeighborLoader``: every mini-batch is the
merged union subgraph of a fanout neighbor sample around a chunk of seed
nodes, relabelled so the seeds occupy rows ``[:n_seeds]`` — a model's
output rows for the seeds line up with the batch labels directly.

Sampling happens on the host under the clock's ``"sampling"`` phase (via
:class:`repro.scale.NeighborSampler`); feature gather, collation and the
H2D copy are charged under ``"data_loading"`` like every other loader, so
sampled-training epochs expose a sampling/loading/compute breakdown.
Compatible with :class:`repro.pygx.PrefetchDataLoader` for pipelined
sampling+collation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.big_graph import gather_rows
from repro.loader import SeedLoader
from repro.tensor import Tensor


class NeighborBatch:
    """One sampled subgraph on the device; duck-types :class:`~repro.pygx.Batch`.

    ``x``/``edge_index``/``num_nodes`` feed ``repro.models.Net.forward``
    unchanged (node task); rows ``[:n_seeds]`` of the model output correspond to
    ``seed_nodes`` and ``y``.
    """

    def __init__(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        n_seeds: int,
        seed_nodes: np.ndarray,
        y: np.ndarray,
        true_in_degrees: Optional[np.ndarray] = None,
    ) -> None:
        self.x = x
        self.edge_index = edge_index
        self.n_seeds = n_seeds
        self.seed_nodes = seed_nodes
        self.y = y
        self.true_in_degrees = true_in_degrees

    @property
    def num_nodes(self) -> int:
        return len(self.x)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]


class NeighborLoader(SeedLoader):
    """Iterates :class:`NeighborBatch` objects over seed-node chunks.

    The seed loop is :class:`repro.loader.SeedLoader`'s; this loader
    supplies the PyG-style batch (one COO ``edge_index``).
    """

    def _collate(self, device, fetch, chunk, sub, src, dst) -> NeighborBatch:
        x = gather_rows(self.graph.x, sub.nodes)
        edge_index = np.stack([src, dst])
        nbytes = x.nbytes + edge_index.nbytes
        device.host(fetch + device.host_costs.batch_per_byte * nbytes)
        device.transfer(nbytes)
        device.track(edge_index)
        true_deg = None
        if self.full_graph_norm:
            true_deg = np.diff(self.graph.indptr)[sub.nodes]
            device.track(true_deg)
        return NeighborBatch(
            x=Tensor(x),
            edge_index=edge_index,
            n_seeds=sub.n_seeds,
            seed_nodes=chunk,
            y=self.labels[chunk],
            true_in_degrees=true_deg,
        )
