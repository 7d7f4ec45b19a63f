"""PyG-style message passing base class.

Every pygx convolution runs the gather -> message -> scatter pipeline in its
own ``forward``: per-edge source (and optionally destination) features are
*materialised* with gather kernels (``index_rows``), combined into messages,
and aggregated with a scatter kernel (``scatter``).  This is the unfused
counterpart of DGL's GSpMM (see :mod:`repro.tensor.ops_sparse`) — more
kernel launches and more edge-level memory traffic, but each step is a
highly tuned dense primitive, which is the trade PyG makes.
"""

from __future__ import annotations

from repro.nn import Module


class MessagePassing(Module):
    """Base class of the pack's convolutions: holds the validated aggregation."""

    def __init__(self, aggr: str = "sum") -> None:
        super().__init__()
        if aggr not in ("sum", "mean", "max"):
            raise ValueError(f"unsupported aggregation {aggr!r}")
        self.aggr = aggr
