"""Common skeleton for the DGL-style model pack.

Structurally identical networks to :mod:`repro.pygx.models` (same layer
types, sizes and wiring — the paper's comparability requirement), but every
layer is written against the DGL-style API: message/reduce builtins lowered
to GSpMM, fused edge kernels, segment-reduce readout.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.device import current_device
from repro.dglx.heterograph import DGLGraph
from repro.dglx.readout import mean_nodes
from repro.models import MLPReadout, ModelConfig
from repro.nn import Dropout, Module
from repro.tensor import Tensor


class DGLXNet(Module):
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

    def forward(self, g: DGLGraph) -> Tensor:
        h = g.ndata["feat"]
        for name in self.conv_names:
            if self.dropout is not None:
                h = self.dropout(h)
            h = getattr(self, name)(g, h)
        if self.config.task == "node":
            return h
        g.ndata["h_final"] = h
        with current_device().scope("pooling"):
            hg = mean_nodes(g, "h_final")
        return self.classifier(hg)
