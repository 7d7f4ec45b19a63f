"""Model configurations: the paper's hyper-parameter Tables II and III.

Both framework packs build their six models from the same
:class:`ModelConfig`, mirroring the paper's methodology: "we adopt
implementations of the same model to make them comparable across frameworks
... the same types and sizes of corresponding layers" (Section III-C).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple

MODEL_NAMES = ("gcn", "gin", "sage", "gat", "monet", "gatedgcn")
ISOTROPIC = ("gcn", "gin", "sage")
ANISOTROPIC = ("gat", "monet", "gatedgcn")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + training hyper-parameters for one model/task pair."""

    model: str
    task: str  # "node" or "graph"
    in_dim: int
    hidden: int
    out_dim: int
    n_classes: int
    n_layers: int
    lr: float
    dropout: float = 0.0
    readout: str = "mean"
    # model-specific knobs (Table II/III "Other" column)
    n_heads: int = 8  # GAT
    kernels: int = 2  # MoNet Gaussian kernels
    pseudo_dim: int = 2  # MoNet pseudo-coordinate dim
    sage_aggregator: str = "mean_pool"
    neighbor_aggr_gin: str = "sum"
    learn_eps_gin: bool = True
    edge_feat: bool = False  # GatedGCN explicit edge features
    # learning setup (Table III)
    lr_reduce_factor: float = 0.5
    lr_patience: int = 25
    min_lr: float = 1e-6
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; options: {MODEL_NAMES}")
        if self.task not in ("node", "graph"):
            raise ValueError(f"task must be 'node' or 'graph', got {self.task!r}")
        if min(self.in_dim, self.hidden, self.out_dim, self.n_classes) <= 0:
            raise ValueError("dimensions must be positive")
        if self.n_layers < 1:
            raise ValueError("need at least one layer")

#: Table II — node classification: (hidden, lr) plus fixed extras.
_NODE_TABLE: Dict[str, Tuple[int, float]] = {
    "gcn": (80, 0.01),
    "gat": (32, 0.01),
    "gin": (64, 0.005),
    "sage": (32, 0.001),
    "monet": (64, 0.003),
    "gatedgcn": (64, 0.001),
}

#: Table III — graph classification: (hidden, out, init_lr); L=4 for all.
_GRAPH_TABLE: Dict[str, Tuple[int, int, float]] = {
    "gcn": (128, 128, 1e-3),
    "gat": (32, 256, 1e-3),
    "gin": (80, 80, 1e-3),
    "sage": (96, 96, 7e-4),
    "monet": (80, 80, 1e-3),
    "gatedgcn": (96, 96, 7e-4),
}


def node_config(model: str, in_dim: int, n_classes: int, **overrides) -> ModelConfig:
    """Table II configuration: 2 layers (input -> hidden -> output)."""
    model = model.lower()
    if model not in _NODE_TABLE:
        raise KeyError(f"unknown model {model!r}")
    hidden, lr = _NODE_TABLE[model]
    cfg = ModelConfig(
        model=model,
        task="node",
        in_dim=in_dim,
        hidden=hidden,
        out_dim=n_classes,
        n_classes=n_classes,
        n_layers=2,
        lr=lr,
        dropout=0.5,
        learn_eps_gin=False,
    )
    return replace(cfg, **overrides) if overrides else cfg


def graph_config(model: str, in_dim: int, n_classes: int, **overrides) -> ModelConfig:
    """Table III configuration: L=4, mean readout, plateau LR decay."""
    model = model.lower()
    if model not in _GRAPH_TABLE:
        raise KeyError(f"unknown model {model!r}")
    hidden, out, lr = _GRAPH_TABLE[model]
    cfg = ModelConfig(
        model=model,
        task="graph",
        in_dim=in_dim,
        hidden=hidden,
        out_dim=out,
        n_classes=n_classes,
        n_layers=4,
        lr=lr,
    )
    return replace(cfg, **overrides) if overrides else cfg
