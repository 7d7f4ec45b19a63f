"""Mini-batch loader for the DGL-style framework."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.dglx.batch import batch as dgl_batch
from repro.dglx.heterograph import DGLGraph
from repro.graph import GraphSample
from repro.graph.graph import collate_labels
from repro.loader import GraphLoader


def collate(samples: Sequence[GraphSample]) -> Tuple[DGLGraph, np.ndarray]:
    """``(batched_graph, labels)`` of host graphs: DGL's per-type batching."""
    return dgl_batch(samples), collate_labels([s.y for s in samples])


class GraphDataLoader(GraphLoader):
    """Yields ``(batched_graph, labels)`` pairs, DGL style.

    The epoch loop (order, shuffle, sharding, the ``data_loading`` phase) is
    :class:`repro.loader.GraphLoader`'s; this loader supplies DGL's
    collation (heterograph, per-type frames).
    """

    def __iter__(self) -> Iterator[Tuple[DGLGraph, np.ndarray]]:
        return self._epoch(collate)
