"""The six paper models implemented PyG-style.

The network around the convs is :class:`repro.models.Net`; this pack
supplies its convs, how one runs on a :class:`~repro.pygx.data.Batch`, and
the scatter-based mean readout.  Each conv runs the gather -> message ->
scatter pipeline in its own ``forward``: per-edge features are
*materialised* with gather kernels (``index_rows``), combined into
messages, and aggregated with a scatter kernel.  This is the unfused
counterpart of DGL's GSpMM — more launches and more edge-level memory
traffic, but each step is a tuned dense primitive, the trade PyG makes.
"""

from typing import Optional

import numpy as np

from repro.device import current_device
from repro.models import Lowering, ModelConfig, Net
from repro.pygx.models.gat import GATConv
from repro.pygx.models.gatedgcn import GatedGCNConv
from repro.pygx.models.gcn import GCNConv
from repro.pygx.models.gin import GINConv
from repro.pygx.models.monet import GMMConv
from repro.pygx.models.sage import SAGEConv
from repro.pygx.pool import global_mean_pool


def _run(conv, batch, x):
    # Sampled batches may carry the nodes' full-graph in-degrees so
    # degree-normalised convs can debias fanout truncation; convs that
    # understand them opt in via ``full_graph_norm_capable``.
    true_deg = getattr(batch, "true_in_degrees", None)
    if true_deg is not None and getattr(conv, "full_graph_norm_capable", False):
        return conv(x, batch.edge_index, batch.num_nodes, true_in_degrees=true_deg)
    return conv(x, batch.edge_index, batch.num_nodes)


def _readout(batch, x):
    with current_device().scope("pooling"):
        return global_mean_pool(x, batch.batch, batch.num_graphs)


_LOWERING = Lowering(
    convs={
        "gcn": GCNConv,
        "gin": GINConv,
        "sage": SAGEConv,
        "gat": GATConv,
        "monet": GMMConv,
        "gatedgcn": GatedGCNConv,
    },
    features=lambda batch: batch.x,
    run=_run,
    readout=_readout,
    scope_prefix="",
)


def build_model(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> Net:
    """Instantiate the PyG-style net for ``config.model``."""
    return Net(config, _LOWERING, rng)


__all__ = [
    "build_model",
    "GCNConv",
    "GINConv",
    "SAGEConv",
    "GATConv",
    "GMMConv",
    "GatedGCNConv",
]
