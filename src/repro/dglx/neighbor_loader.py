"""DGL-style neighbor-sampling loader over a CSR-backed large graph.

The analogue of ``dgl.dataloading.DataLoader`` with a
``NeighborSampler``: each mini-batch is a sampled subgraph wrapped in a
:class:`~repro.dglx.DGLGraph` (heterograph bookkeeping, typed frames,
lazy CSR — the same per-batch overheads the paper attributes to DGL's
data path), with seed nodes occupying rows ``[:n_seeds]``.

Yields ``(g, labels, n_seeds)`` triples; model output rows ``[:n_seeds]``
line up with ``labels``.  Sampling is charged under the ``"sampling"``
clock phase, collation/H2D under ``"data_loading"``.  Compatible with
:class:`repro.dglx.PrefetchDataLoader`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dglx.heterograph import DGLGraph
from repro.graph.big_graph import gather_rows
from repro.loader import SeedLoader
from repro.tensor import Tensor


class NeighborLoader(SeedLoader):
    """Iterates ``(DGLGraph, labels, n_seeds)`` over seed-node chunks.

    The seed loop is :class:`repro.loader.SeedLoader`'s; this loader
    supplies the DGL-style heterograph around each sampled subgraph.
    """

    def _collate(
        self, device, fetch, chunk, sub, src, dst
    ) -> Tuple[DGLGraph, np.ndarray, int]:
        costs = device.host_costs
        x = gather_rows(self.graph.x, sub.nodes)
        nbytes = x.nbytes + src.nbytes + dst.nbytes
        # Heterograph construction cost: base + per-type frames, the DGL
        # data-path overhead of Section IV-C.
        device.host(
            fetch
            + costs.dgl_batch_base
            + costs.dgl_batch_per_type
            + costs.batch_per_byte * nbytes
        )
        device.transfer(nbytes)
        device.track(src)
        device.track(dst)
        g = DGLGraph(src, dst, sub.num_nodes)
        g.ndata["feat"] = Tensor(x)
        if self.full_graph_norm:
            # Full-graph in-degrees of the sampled nodes: GraphConv uses
            # them to debias fanout truncation (see repro.dglx.models.gcn).
            true = np.maximum(np.diff(self.graph.indptr)[sub.nodes], 1)
            g.ndata["true_in_deg"] = Tensor(true.astype(np.float32).reshape(-1, 1))
        return g, self.labels[chunk], sub.n_seeds
