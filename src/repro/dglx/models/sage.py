"""GraphSAGE under the DGL-style framework.

Same function class as the PyG-style layer (Eq. 2, mean-pool aggregator),
but lowered the way DGL's ``SAGEConv`` does it: separate ``fc_self`` and
``fc_neigh`` transforms *added* together instead of a single linear on the
concatenation, with the neighbour mean computed by a fused GSpMM.
"""

from __future__ import annotations

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.nn import Linear, Module
from repro.nn.functional import l2_normalize
from repro.tensor import Tensor, ops, relu


class SAGEConv(Module):
    """One DGL-style GraphSAGE layer with the mean-pool aggregator."""

    def __init__(self, d_in: int, d_out: int, rng, activation: bool = True) -> None:
        super().__init__()
        self.fc_pool = Linear(d_in, d_out, rng=rng)
        self.fc_self = Linear(d_in, d_out, rng=rng)
        self.fc_neigh = Linear(d_out, d_out, rng=rng)
        self.activation = activation

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        g.ndata["h_pool"] = relu(self.fc_pool(h))
        g.update_all(fn.copy_u("h_pool", "m"), fn.mean("m", "h_neigh"))
        out = ops.add(self.fc_self(h), self.fc_neigh(g.ndata["h_neigh"]))
        if not self.activation:  # final node-classification layer: raw logits
            return out
        return l2_normalize(relu(out))
