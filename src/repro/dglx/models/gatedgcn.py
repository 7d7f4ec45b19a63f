"""GatedGCN under the DGL-style framework — the paper's worst case.

Section IV-A observation 3: "In DGL, we have to set the edge types
parameter of GatedGCN although the dataset does not have this
characteristic and then the features of all edges will be updated through a
fully connected layer.  The training time of GatedGCN under DGL is mainly
spent on the edge feature update operation."

This implementation therefore maintains an **explicit edge feature state**:
every layer runs a fully connected transform over all ``E`` edge features
(an ``(E, d) x (d, d)`` matmul — by far the largest kernels in the model on
dense batches), plus edge-side BatchNorm, ReLU and residual, on top of the
node update the PyG-style layer performs.  That roughly doubles time and
memory versus :mod:`repro.pygx.models.gatedgcn`, reproducing Tables IV/V
and Fig. 4.
"""

from __future__ import annotations

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.nn import BatchNorm1d, Linear, Module
from repro.tensor import Tensor, ops, relu, sigmoid
from repro.tensor.creation import ones


class GatedGCNConv(Module):
    """One DGL-style GatedGCN layer with explicit edge features."""

    def __init__(
        self, d_in: int, d_out: int, rng, activation: bool = True
    ) -> None:
        super().__init__()
        self.activation = activation
        self.fc_u = Linear(d_in, d_out, rng=rng)
        self.fc_v = Linear(d_in, d_out, rng=rng)
        self.fc_a = Linear(d_in, d_out, rng=rng)
        self.fc_b = Linear(d_in, d_out, rng=rng)
        # The edge-type path: a fully connected update over ALL edges.
        self.fc_e = Linear(d_in, d_out, rng=rng)
        self.bn_h = BatchNorm1d(d_out)
        self.bn_e = BatchNorm1d(d_out)
        self.residual = d_in == d_out

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        e = g.edata["e_feat"]
        # Edge feature update through a fully connected layer: (E, d) matmul.
        # The node halves broadcast to edges in one fused GSDDMM launch
        # (u_add_v) instead of the two gathers + add of the unfused chain.
        g.ndata["eb"] = self.fc_b(h)
        g.ndata["ea"] = self.fc_a(h)
        g.apply_edges(fn.u_add_v("eb", "ea", "uv"))
        e_new = ops.add(self.fc_e(e), g.edata["uv"])
        gates = sigmoid(e_new)
        g.edata["gate"] = gates
        g.ndata["vh"] = self.fc_v(h)
        g.update_all(fn.u_mul_e("vh", "gate", "m"), fn.sum("m", "num"))
        # Gate normalisation (sum of gates per destination) as its own GSpMM.
        g.ndata["ones_h"] = ones((g.num_nodes(), gates.shape[1]))
        g.update_all(fn.u_mul_e("ones_h", "gate", "m2"), fn.sum("m2", "den"))
        denom = ops.clamp_min(g.ndata["den"], 1e-6)
        h_new = ops.add(self.fc_u(h), ops.div(g.ndata["num"], denom))
        if not self.activation:  # final node-classification layer: raw logits
            g.edata["e_feat"] = e_new
            return h_new
        h_new = relu(self.bn_h(h_new))
        e_out = relu(self.bn_e(e_new))
        if self.residual:
            h_new = ops.add(h, h_new)
            e_out = ops.add(e, e_out)
        g.edata["e_feat"] = e_out
        return h_new
