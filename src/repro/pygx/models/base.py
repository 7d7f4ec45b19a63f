"""Common skeleton for the PyG-style model pack.

Every net is: input dropout (node task) -> ``conv1`` .. ``convL`` -> either
per-node logits (node classification, the last conv maps to classes) or a
mean-pool readout plus MLP classifier (graph classification, Section
IV-B.4).  Conv layers are registered as attributes ``conv1``..``convL`` so
profiler scopes line up with the paper's Fig. 3 labels.

Each conv is a plain :class:`~repro.nn.Module` that runs the gather ->
message -> scatter pipeline in its own ``forward``: per-edge features are
*materialised* with gather kernels (``index_rows``), combined into
messages, and aggregated with a scatter kernel.  This is the unfused
counterpart of DGL's GSpMM — more launches and more edge-level memory
traffic, but each step is a tuned dense primitive, the trade PyG makes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.device import current_device
from repro.models import MLPReadout, ModelConfig
from repro.nn import Dropout, Module
from repro.pygx.data import Batch
from repro.pygx.pool import global_mean_pool
from repro.tensor import Tensor


class PyGXNet(Module):
    """Base class; subclasses implement :meth:`build_conv` and dims."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng()
        self.dropout = Dropout(config.dropout, rng=rng) if config.dropout else None
        self.conv_names: List[str] = []
        for i, (d_in, d_out) in enumerate(self.layer_dims(config)):
            name = f"conv{i + 1}"
            setattr(self, name, self.build_conv(i, d_in, d_out, config, rng))
            self.conv_names.append(name)
        if config.task == "graph":
            self.classifier = MLPReadout(config.out_dim, config.n_classes, rng=rng)

    # ------------------------------------------------------------------
    def layer_dims(self, config: ModelConfig) -> List[Tuple[int, int]]:
        """(in, out) feature widths per conv layer; subclasses may override."""
        dims: List[Tuple[int, int]] = []
        width_in = config.in_dim
        for i in range(config.n_layers):
            last = i == config.n_layers - 1
            width_out = config.out_dim if last else config.hidden
            dims.append((width_in, width_out))
            width_in = width_out
        return dims

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> Tensor:
        x = batch.x
        # Sampled batches may carry the nodes' full-graph in-degrees so
        # degree-normalised convs can debias fanout truncation; convs that
        # understand them opt in via ``full_graph_norm_capable``.
        true_deg = getattr(batch, "true_in_degrees", None)
        for name in self.conv_names:
            if self.dropout is not None:
                x = self.dropout(x)
            conv = getattr(self, name)
            if true_deg is not None and getattr(conv, "full_graph_norm_capable", False):
                x = conv(x, batch.edge_index, batch.num_nodes,
                         true_in_degrees=true_deg)
            else:
                x = conv(x, batch.edge_index, batch.num_nodes)
        if self.config.task == "node":
            return x
        with current_device().scope("pooling"):
            hg = global_mean_pool(x, batch.batch, batch.num_graphs)
        return self.classifier(hg)
