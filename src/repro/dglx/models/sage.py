"""GraphSAGE under the DGL-style framework.

Same function class as the PyG-style layer (Eq. 2, mean-pool aggregator),
but lowered the way DGL's ``SAGEConv`` does it: separate ``fc_self`` and
``fc_neigh`` transforms *added* together instead of a single linear on the
concatenation, with the neighbour mean computed by a fused GSpMM.
"""

from __future__ import annotations

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.dglx.models.base import DGLXNet
from repro.models import ModelConfig
from repro.nn import Linear, Module
from repro.nn.functional import l2_normalize
from repro.tensor import Tensor, ops, relu


AGGREGATORS = ("mean", "mean_pool", "max_pool")


class SAGEConv(Module):
    """One DGL-style GraphSAGE layer (aggregators: mean, mean_pool, max_pool)."""

    def __init__(
        self,
        d_in: int,
        d_out: int,
        rng,
        activation: bool = True,
        aggregator: str = "mean_pool",
    ) -> None:
        super().__init__()
        if aggregator not in AGGREGATORS:
            raise ValueError(f"unknown aggregator {aggregator!r}; options: {AGGREGATORS}")
        self.aggregator = aggregator
        self.fc_pool = None if aggregator == "mean" else Linear(d_in, d_out, rng=rng)
        self.fc_self = Linear(d_in, d_out, rng=rng)
        neigh_in = d_in if aggregator == "mean" else d_out
        self.fc_neigh = Linear(neigh_in, d_out, rng=rng)
        self.activation = activation

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        if self.aggregator == "mean":
            g.ndata["h_pool"] = h
            g.update_all(fn.copy_u("h_pool", "m"), fn.mean("m", "h_neigh"))
        else:
            g.ndata["h_pool"] = relu(self.fc_pool(h))
            reducer = fn.max if self.aggregator == "max_pool" else fn.mean
            g.update_all(fn.copy_u("h_pool", "m"), reducer("m", "h_neigh"))
        out = ops.add(self.fc_self(h), self.fc_neigh(g.ndata["h_neigh"]))
        if not self.activation:  # final node-classification layer: raw logits
            return out
        return l2_normalize(relu(out))


class SAGENet(DGLXNet):
    """Stack of :class:`SAGEConv` layers."""

    def build_conv(self, index: int, d_in: int, d_out: int, config: ModelConfig, rng):
        last = index == config.n_layers - 1
        activation = not (last and config.task == "node")
        return SAGEConv(
            d_in, d_out, rng, activation=activation, aggregator=config.sage_aggregator
        )
