"""PyG-style GNN framework: COO data model, scatter-based message passing.

Architectural traits mirrored from PyTorch Geometric (and contrasted with
:mod:`repro.dglx` throughout the paper):

* vectorised "advanced mini-batching" (:class:`repro.pygx.data.Batch`);
* gather -> message -> scatter message passing (unfused, dense primitives);
* pooling built on the scatter API;
* edge softmax composed from scatter/gather launches.
"""

from repro.pygx import models
from repro.pygx.cached_loader import CachedDataLoader
from repro.pygx.data import Batch, Data
from repro.pygx.loader import DataLoader
from repro.pygx.message_passing import MessagePassing
from repro.pygx.models import build_model
from repro.pygx.neighbor_loader import NeighborBatch, NeighborLoader
from repro.pygx.prefetch import PrefetchDataLoader
from repro.pygx.pool import global_add_pool, global_max_pool, global_mean_pool
from repro.pygx.softmax import edge_softmax

__all__ = [
    "Data",
    "Batch",
    "DataLoader",
    "CachedDataLoader",
    "PrefetchDataLoader",
    "NeighborLoader",
    "NeighborBatch",
    "MessagePassing",
    "build_model",
    "models",
    "global_mean_pool",
    "global_add_pool",
    "global_max_pool",
    "edge_softmax",
]
