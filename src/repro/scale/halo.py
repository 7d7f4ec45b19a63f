"""Per-partition full-graph inference with halo exchange.

Runs a node-classification model over a graph that does not fit the
simulated device by executing layer-by-layer, partition-by-partition:
for every layer, each part transfers the feature rows of its owned nodes
plus its *halo* (ghost rows owned by other parts — the halo exchange),
aggregates locally, and writes its owned output rows back to the host.
Only one part's working set is resident at a time, so peak device memory
is bounded by the largest part rather than the whole graph.

Because layers execute globally in lockstep (every part finishes layer
``l`` before any part starts ``l+1``), the halo rows each part reads are
the *exact* values computed by their owning parts — a one-hop halo is
sufficient.  The one subtlety is degree-normalised convs (GCN): a halo
source's in-degree is unknowable from the local subgraph, so the driver
hands every conv the nodes' full-graph in-degrees through the same
``full_graph_norm`` channel the sampled loaders use
(``true_in_degrees`` / ``ndata["true_in_deg"]``), under which owned rows
reduce to the exact full-graph computation.

:func:`full_graph_training_memory_floor` gives a provable lower bound on
what full-graph training would allocate — when the floor exceeds the
device capacity, partitioned (or sampled) execution is not an
optimisation but the only way to run at all.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.device import current_device
from repro.graph.big_graph import CSRBigGraph, gather_rows
from repro.models import ModelConfig
from repro.packs import get_pack
from repro.scale.partition import Part, Partition
from repro.tensor import Tensor, no_grad


def part_local_graph(
    graph: CSRBigGraph, part: Part
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Local subgraph for one part: ``(nodes, src, dst, num_owned)``.

    ``nodes`` holds global ids, the owned range first and the halo after
    it; ``src``/``dst`` are local endpoints of every in-edge of the owned
    nodes (a contiguous CSR slice — the payoff of row-block partitioning).
    Halo rows carry input values only; their output rows are garbage and
    must be discarded by the caller.
    """
    owned = np.arange(part.lo, part.hi, dtype=np.int64)
    lo_e, hi_e = graph.indptr[part.lo], graph.indptr[part.hi]
    src_global = graph.indices[lo_e:hi_e]
    dst_global = np.repeat(owned, np.diff(graph.indptr[part.lo:part.hi + 1]))
    nodes = np.concatenate([owned, part.halo])

    # Owned ids map to their offset in the block; halo ids via binary
    # search over the (sorted, unique) halo array.
    src_local = np.where(
        (src_global >= part.lo) & (src_global < part.hi),
        src_global - part.lo,
        len(owned) + np.searchsorted(part.halo, src_global),
    ).astype(np.int64)
    dst_local = (dst_global - part.lo).astype(np.int64)
    return nodes, src_local, dst_local, len(owned)


def partitioned_inference(
    framework: str,
    model,
    graph: CSRBigGraph,
    partition: Partition,
) -> np.ndarray:
    """Full-graph logits ``(num_nodes, out_dim)`` via per-part execution.

    Drives the model's conv layers directly (``model.conv_names``), one
    layer at a time over every part; intermediate activations live on the
    host between layers and only one part's rows are device-resident at
    any moment.  Gradient-free (``no_grad``); the caller gets the same
    logits as ``model(full_batch)`` in eval mode would produce, without
    the full graph ever fitting on the device.
    """
    get_pack(framework)  # rejects an unknown framework
    device = current_device()
    model.eval()
    locals_cache = [part_local_graph(graph, part) for part in partition.parts]
    degrees = np.diff(graph.indptr)

    h = graph.x
    with no_grad():
        for name in model.conv_names:
            conv = getattr(model, name)
            out: np.ndarray = None
            for part, (nodes, src, dst, num_owned) in zip(
                partition.parts, locals_cache
            ):
                with device.clock.phase("data_loading"):
                    x_local = gather_rows(h, nodes)
                    # Halo exchange: owned rows come from this part's host
                    # shard, ghost rows from their owners; either way the
                    # device pays one H2D copy of the local working set.
                    device.transfer(x_local.nbytes + src.nbytes + dst.nbytes)
                    device.track(src)
                    device.track(dst)
                    true_deg = degrees[nodes]
                with device.clock.phase("forward"):
                    if framework == "pygx":
                        edge_index = np.stack([src, dst])
                        if getattr(conv, "full_graph_norm_capable", False):
                            result = conv(
                                Tensor(x_local), edge_index, len(nodes),
                                true_in_degrees=true_deg,
                            )
                        else:
                            result = conv(Tensor(x_local), edge_index, len(nodes))
                    else:
                        from repro.dglx import DGLGraph

                        g = DGLGraph(src, dst, len(nodes))
                        g.ndata["true_in_deg"] = Tensor(
                            np.maximum(true_deg, 1)
                            .astype(np.float32)
                            .reshape(-1, 1)
                        )
                        result = conv(g, Tensor(x_local))
                rows = result.data[:num_owned]
                if out is None:
                    out = np.empty((graph.num_nodes, rows.shape[1]), dtype=np.float32)
                out[part.lo:part.hi] = rows
                # D2H of the owned rows: the part's contribution to the
                # next layer's host-resident activation matrix.
                device.transfer(rows.nbytes)
            h = out
    return h


def full_graph_training_memory_floor(
    num_nodes: int, num_edges: int, config: ModelConfig
) -> int:
    """Provable lower bound (bytes) on full-graph training residency.

    Counts only what any implementation of the configured model must hold
    simultaneously during one full-graph step: every layer's activation
    matrix (kept for backward) plus one per-edge message buffer at the
    widest layer width.  Real training holds more (gradients, optimiser
    state, normalisation workspaces), so exceeding the device capacity on
    this floor proves full-graph training cannot fit.
    """
    widths = [config.in_dim] + [config.hidden] * (config.n_layers - 1) + [config.out_dim]
    activations = num_nodes * sum(widths) * 4
    messages = num_edges * max(widths) * 4
    return int(activations + messages)
