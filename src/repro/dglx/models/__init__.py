"""The six paper models implemented DGL-style.

The network around the convs is :class:`repro.models.Net`, the same wiring
as :mod:`repro.pygx.models` (the paper's comparability requirement); this
pack supplies its convs, written against the DGL-style API (message/reduce
builtins lowered to GSpMM, fused edge kernels), a conv call on a
:class:`~repro.dglx.heterograph.DGLGraph`, and the segment-reduce readout.
"""

from typing import Optional

import numpy as np

from repro.device import current_device
from repro.dglx.heterograph import DGLGraph
from repro.dglx.models.gat import GATConv
from repro.dglx.models.gatedgcn import GatedGCNConv
from repro.dglx.models.gcn import GraphConv
from repro.dglx.models.gin import GINConv
from repro.dglx.models.monet import GMMConv
from repro.dglx.models.sage import SAGEConv
from repro.dglx.readout import mean_nodes
from repro.models import Lowering, ModelConfig, Net
from repro.nn import Linear
from repro.tensor import Tensor
from repro.tensor.creation import ones


def _readout(g, h):
    g.ndata["h_final"] = h  # the frame set is charged outside the pooling scope
    with current_device().scope("pooling"):
        return mean_nodes(g, "h_final")


_LOWERING = Lowering(
    convs={
        "gcn": GraphConv,
        "gin": GINConv,
        "sage": SAGEConv,
        "gat": GATConv,
        "monet": GMMConv,
        "gatedgcn": GatedGCNConv,
    },
    features=lambda g: g.ndata["feat"],
    run=lambda conv, g, h: conv(g, h),
    readout=_readout,
    scope_prefix="",
)


class GatedGCNNet(Net):
    """GatedGCN with the edge-feature state DGL makes it carry (observation 3)."""

    def __init__(self, config: ModelConfig, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(config, _LOWERING, rng)
        rng = rng or np.random.default_rng()
        self.edge_embed = Linear(1, config.in_dim, rng=rng)

    def forward(self, g: DGLGraph) -> Tensor:
        # Initialise the mandatory edge-feature state (the "edge types
        # parameter" the paper had to set even though the data has none).
        g.edata["e_feat"] = self.edge_embed(ones((g.num_edges(), 1)))
        return super().forward(g)


def build_model(config: ModelConfig, rng: Optional[np.random.Generator] = None) -> Net:
    """Instantiate the DGL-style net for ``config.model``."""
    if config.model == "gatedgcn":
        return GatedGCNNet(config, rng)
    return Net(config, _LOWERING, rng)


__all__ = [
    "build_model",
    "GraphConv",
    "GINConv",
    "SAGEConv",
    "GATConv",
    "GMMConv",
    "GatedGCNConv",
]
