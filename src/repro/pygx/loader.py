"""Mini-batch loader for the PyG-style framework."""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.graph import GraphSample
from repro.loader import GraphLoader
from repro.pygx.data import Batch, Data


def collate(samples: Sequence[GraphSample]) -> Batch:
    """One :class:`Batch` from host graphs: PyG's ``Batch.from_data_list``."""
    return Batch.from_data_list([Data.from_sample(s) for s in samples])


class DataLoader(GraphLoader):
    """Iterates PyG-style :class:`Batch` objects over a list of graphs.

    The epoch loop (order, shuffle, sharding, the ``data_loading`` phase) is
    :class:`repro.loader.GraphLoader`'s; this loader supplies PyG's
    collation.
    """

    def __iter__(self) -> Iterator[Batch]:
        return self._epoch(collate)
