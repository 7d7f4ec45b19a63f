"""Framework-neutral graph containers and random structure generators."""

from repro.graph.big_graph import CSRBigGraph, gather_rows
from repro.graph.generators import (
    clique_motif,
    connected_chain_backbone,
    knn_edges,
    planted_partition,
    ring_motif,
    rmat_edges,
    star_motif,
)
from repro.graph.graph import GraphSample, as_generator, dedupe_edges, undirected_edge_index

__all__ = [
    "GraphSample",
    "CSRBigGraph",
    "as_generator",
    "undirected_edge_index",
    "dedupe_edges",
    "gather_rows",
    "planted_partition",
    "rmat_edges",
    "connected_chain_backbone",
    "ring_motif",
    "clique_motif",
    "star_motif",
    "knn_edges",
]
