"""DGL-style GNN framework: heterograph data model, fused GSpMM lowering.

Architectural traits mirrored from Deep Graph Library (and contrasted with
:mod:`repro.pygx` throughout the paper):

* heterograph storage with typed frames even for homogeneous data;
* per-type, backend-agnostic batching (slower than PyG's vectorised path);
* message/reduce builtins lowered to fused GSpMM/GSDDMM kernels;
* fused edge softmax; segment-reduce readout.
"""

from repro.dglx import function, models
from repro.dglx.batch import batch
from repro.dglx.hetero_multitype import HeteroDGLGraph, as_k_type_graph, batch_hetero
from repro.dglx.heterograph import DGLGraph
from repro.dglx.loader import GraphDataLoader
from repro.dglx.models import build_model
from repro.dglx.neighbor_loader import NeighborLoader
from repro.dglx.prefetch import PrefetchDataLoader
from repro.dglx.readout import max_nodes, mean_nodes, sum_nodes

__all__ = [
    "DGLGraph",
    "HeteroDGLGraph",
    "batch_hetero",
    "as_k_type_graph",
    "batch",
    "GraphDataLoader",
    "PrefetchDataLoader",
    "NeighborLoader",
    "function",
    "models",
    "build_model",
    "mean_nodes",
    "sum_nodes",
    "max_nodes",
]
