"""DGL-style graph batching.

Batches graphs into one big disconnected heterograph *per type*: for every
node type and every edge type the batcher walks the graph list, relabels
ids, and concatenates frames.  Homogeneous graphs still pay for one node
type and one edge type of bookkeeping, and the data path is
backend-agnostic (it cannot use the backend's fused vectorised ops) — the
two reasons Section IV-C gives for DGL's batching being slower than PyG's.

The simulated host cost therefore charges a *per-graph, per-type* term on
top of the byte-proportional concatenation cost, unlike
:meth:`repro.pygx.data.Batch.from_data_list`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.device import current_device
from repro.dglx.heterograph import DGLGraph
from repro.graph import GraphSample
from repro.graph.graph import collate_arrays
from repro.tensor import Tensor


def batch(samples: Sequence[GraphSample]) -> DGLGraph:
    """Collate host graphs into one device-resident batched heterograph.

    Node features land in ``ndata['feat']``; graph labels are returned via
    the loader, matching DGL's ``GraphDataLoader`` collate behaviour.
    """
    if not samples:
        raise ValueError("cannot batch an empty list of graphs")
    device = current_device()
    costs = device.host_costs

    n_types = 1  # '_N'
    e_types = 1  # ('_N','_E','_N')
    # Per-type, per-graph bookkeeping: id relabelling, frame scheme checks.
    device.host(
        costs.dgl_batch_base
        + costs.dgl_batch_per_graph * len(samples)
        + costs.dgl_batch_per_type * len(samples) * (n_types + e_types)
    )

    src_parts: List[np.ndarray] = []
    dst_parts: List[np.ndarray] = []
    x_parts: List[np.ndarray] = []
    batch_num_nodes = np.empty(len(samples), dtype=np.int64)
    batch_num_edges = np.empty(len(samples), dtype=np.int64)
    offset = 0
    # Per-graph python loop: the backend-agnostic path DGL takes.
    for i, sample in enumerate(samples):
        u, v = sample.edge_index
        src_parts.append(u + offset if offset else u)
        dst_parts.append(v + offset if offset else v)
        x_parts.append(sample.x)
        batch_num_nodes[i] = sample.num_nodes
        batch_num_edges[i] = sample.num_edges
        offset += sample.num_nodes

    # A lone graph's batch is its own arrays (see collate_arrays).
    src = collate_arrays(src_parts)
    dst = collate_arrays(dst_parts)
    x = collate_arrays(x_parts)
    nbytes = x.nbytes + src.nbytes + dst.nbytes
    device.host(costs.batch_per_byte * nbytes)
    device.transfer(nbytes)
    device.track(src)
    device.track(dst)

    g = DGLGraph(src, dst, int(offset), batch_num_nodes, batch_num_edges)
    g.ndata["feat"] = Tensor(x)
    return g
