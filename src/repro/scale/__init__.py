"""Million-node scale subsystem: generators' CSR graphs, partitioning,
fanout neighbor sampling and sampled/partitioned execution.

The paper's protocol only covers graphs that fit one device; this package
adds the large-graph regime — seeded synthetic graphs
(:mod:`repro.scale.dataset` over the R-MAT generator),
degree-balanced row-block partitioning with halo metadata
(:mod:`repro.scale.partition`), GraphSAGE-style fanout sampling
(:mod:`repro.scale.sample`) and per-partition halo-exchange inference
(:mod:`repro.scale.halo`).  Sampled mini-batch training wires through the
framework packs' ``NeighborLoader``\\ s and
:class:`repro.train.SampledNodeTrainer`.
"""

from repro.scale.dataset import ScaleNodeDataset, make_scale_dataset
from repro.scale.halo import (
    full_graph_training_memory_floor,
    part_local_graph,
    partitioned_inference,
)
from repro.scale.partition import (
    Part,
    Partition,
    PartitionStats,
    degree_balanced_partition,
)
from repro.scale.sample import (
    NeighborSampler,
    SampledSubgraph,
    sample_in_edges,
)

__all__ = [
    "ScaleNodeDataset",
    "make_scale_dataset",
    "Part",
    "Partition",
    "PartitionStats",
    "degree_balanced_partition",
    "NeighborSampler",
    "SampledSubgraph",
    "sample_in_edges",
    "part_local_graph",
    "partitioned_inference",
    "full_graph_training_memory_floor",
]
