"""GAT under the DGL-style framework.

Attention logits are computed DGL-style: node-level projections ``el``/``er``
are combined on edges with the fused ``u_add_v`` GSDDMM kernel, normalised
with the *fused* edge softmax, and aggregated with a single ``u_mul_e``
GSpMM.  The paper notes both sides of this trade (Section IV-C): DGL's key
aggregation kernels are cheaper than PyG's unfused pipeline, but DGL spends
*more* time computing the attention inputs — which we mirror with the extra
feature-side kernels DGL's GATConv performs (explicit head reshapes and
separate left/right projections).
"""

from __future__ import annotations

from repro.dglx import function as fn
from repro.dglx.heterograph import DGLGraph
from repro.nn import Linear, Module, Parameter
from repro.tensor import Tensor, edge_softmax, elu, leaky_relu, ops
from repro.tensor.creation import randn


class GATConv(Module):
    """One DGL-style multi-head GAT layer."""

    def __init__(
        self, d_in: int, head_dim: int, heads: int, rng, concat_heads: bool = True
    ) -> None:
        super().__init__()
        self.heads = heads
        self.head_dim = head_dim
        self.concat_heads = concat_heads
        self.fc = Linear(d_in, heads * head_dim, bias=False, rng=rng)
        self.attn_l = Parameter(randn((1, heads, head_dim), rng=rng, std=0.1))
        self.attn_r = Parameter(randn((1, heads, head_dim), rng=rng, std=0.1))

    def forward(self, g: DGLGraph, h: Tensor) -> Tensor:
        n = g.num_nodes()
        z = self.fc(h).reshape(n, self.heads, self.head_dim)
        # DGL computes separate left/right attention projections with
        # explicit keepdim sums (extra kernels on the feature side).
        el = ops.mul(z, self.attn_l).sum(axis=-1, keepdims=True)  # (N, H, 1)
        er = ops.mul(z, self.attn_r).sum(axis=-1, keepdims=True)
        g.ndata["el"] = el
        g.ndata["er"] = er
        g.apply_edges(fn.u_add_v("el", "er", "e"))  # fused GSDDMM
        logits = leaky_relu(g.edata["e"], negative_slope=0.2)  # (E, H, 1)
        g.edata["a"] = edge_softmax(g.csr, logits)  # fused
        g.ndata["z"] = z
        g.update_all(fn.u_mul_e("z", "a", "m"), fn.sum("m", "h_out"))  # fused GSpMM
        out = g.ndata["h_out"]  # (N, H, D)
        if self.concat_heads:
            return elu(out.reshape(n, self.heads * self.head_dim))
        return out.mean(axis=1)
