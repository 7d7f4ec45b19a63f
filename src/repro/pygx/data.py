"""PyG-style data objects.

``Data`` keeps host-side (numpy) arrays like a PyG ``Data`` living on CPU;
``Batch`` is the device-resident collated form.  ``Batch.from_data_list``
implements PyG's *advanced mini-batching*: all graphs of a batch are merged
into one disconnected big graph by concatenating feature matrices and
offsetting edge indices — a fully vectorised operation with, as the PyG
paper puts it, no computational or memory overhead (quoted in Section IV-C
of the paper under study).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.device import current_device
from repro.graph import GraphSample
from repro.graph.graph import collate_arrays, collate_labels
from repro.tensor import Tensor


class Data:
    """One graph on the host, PyG style."""

    def __init__(
        self,
        x: np.ndarray,
        edge_index: np.ndarray,
        y,
        pos: Optional[np.ndarray] = None,
    ) -> None:
        self.x = np.asarray(x, dtype=np.float32)
        self.edge_index = np.asarray(edge_index, dtype=np.int64)
        self.y = y
        self.pos = None if pos is None else np.asarray(pos, dtype=np.float32)

    @classmethod
    def from_sample(cls, sample: GraphSample) -> "Data":
        return cls(sample.x, sample.edge_index, sample.y, sample.pos)

    @property
    def num_nodes(self) -> int:
        return len(self.x)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]


class Batch:
    """A batch of graphs merged into one big disconnected graph (device)."""

    def __init__(
        self,
        x: Tensor,
        edge_index: np.ndarray,
        batch: np.ndarray,
        y: np.ndarray,
        num_graphs: int,
        pos: Optional[Tensor] = None,
    ) -> None:
        self.x = x
        self.edge_index = edge_index
        self.batch = batch
        self.y = y
        self.num_graphs = num_graphs
        self.pos = pos

    @property
    def num_nodes(self) -> int:
        return len(self.x)

    @property
    def num_edges(self) -> int:
        return self.edge_index.shape[1]

    @classmethod
    def from_data_list(cls, data_list: Sequence[Data]) -> "Batch":
        """Collate graphs PyG-style (vectorised concatenation + offsets)."""
        if not data_list:
            raise ValueError("cannot batch an empty list of graphs")
        device = current_device()
        costs = device.host_costs

        node_counts = np.array([d.num_nodes for d in data_list], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(node_counts)[:-1]])
        # A lone graph's batch is its own arrays (see collate_arrays).
        x = collate_arrays([d.x for d in data_list])
        edge_index = collate_arrays(
            [d.edge_index + off if off else d.edge_index for d, off in zip(data_list, offsets)],
            axis=1,
        )
        batch_vec = np.repeat(np.arange(len(data_list)), node_counts)
        y = collate_labels([d.y for d in data_list])
        pos_arrays = [d.pos for d in data_list]
        pos = None
        if all(p is not None for p in pos_arrays):
            pos = collate_arrays(pos_arrays)

        # Simulated CPU cost of the collation (see HostCostModel).
        nbytes = x.nbytes + edge_index.nbytes
        device.host(
            costs.pyg_batch_base
            + costs.pyg_batch_per_graph * len(data_list)
            + costs.batch_per_byte * nbytes
        )
        # Host-to-device copy of the collated arrays; index structures live
        # in device memory for the batch lifetime.
        device.transfer(nbytes)
        device.track(edge_index)
        device.track(batch_vec)
        return cls(
            x=Tensor(x),
            edge_index=edge_index,
            batch=batch_vec,
            y=y,
            num_graphs=len(data_list),
            pos=None if pos is None else Tensor(pos),
        )
