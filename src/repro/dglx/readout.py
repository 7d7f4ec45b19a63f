"""Graph readout for the DGL-style framework.

Built on the segment-reduce operator over contiguous per-graph node ranges —
"in DGL, the pooling operation is based on their segment reduction
operator" (Section IV-C).
"""

from __future__ import annotations

from repro.dglx.heterograph import DGLGraph
from repro.tensor import Tensor, segment_mean


def mean_nodes(g: DGLGraph, field: str) -> Tensor:
    """Average ``ndata[field]`` per batched graph."""
    return segment_mean(g.ndata[field], g.node_offsets())

