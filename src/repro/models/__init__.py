"""Shared model configuration (Tables II/III), the network skeleton and its head."""

from repro.models.config import (
    ANISOTROPIC,
    ISOTROPIC,
    MODEL_NAMES,
    ModelConfig,
    graph_config,
    node_config,
)
from repro.models.mlp import MLPReadout
from repro.models.net import Lowering, Net

__all__ = [
    "ModelConfig",
    "node_config",
    "graph_config",
    "MODEL_NAMES",
    "ISOTROPIC",
    "ANISOTROPIC",
    "MLPReadout",
    "Net",
    "Lowering",
]
