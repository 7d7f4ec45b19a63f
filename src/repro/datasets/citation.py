"""Synthetic citation networks standing in for Cora and PubMed.

The paper's node-classification results depend on the *scale* of these
graphs (node/edge counts and feature width drive every kernel size) and on
them being learnable to similar accuracy across frameworks — not on the
actual citation content, which we cannot download offline.  We therefore
plant a homophilous community graph with bag-of-words-style features:

* each class owns a block of "topic words" that its documents use with
  elevated probability, plus uniform background words;
* ``intra_fraction`` of edges connect same-class documents (real citation
  graphs are strongly homophilous), so neighbourhood aggregation genuinely
  helps, and 2-layer GNNs land in the paper's 74-83 % accuracy band.

Statistics match Table I: Cora (2708 nodes, ~5429 undirected edges, 1433
features, 7 classes), PubMed (19717 nodes, ~44338 edges, 500 features, 3
classes); splits match Section IV-A (Cora 140/500/1000, PubMed 60/500/1000).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._random import random_blocks
from repro.datasets.base import NodeClassificationDataset
from repro.datasets.splits import planetoid_split
from repro.graph import GraphSample, planted_partition, undirected_edge_index
from repro.tensor import declare_sparse


@dataclass(frozen=True)
class CitationSpec:
    """Generation recipe for one synthetic citation network."""

    name: str
    num_nodes: int
    num_undirected_edges: int
    num_features: int
    num_classes: int
    train_per_class: int
    n_val: int
    n_test: int
    intra_fraction: float = 0.78
    topic_words: int = 24
    p_topic: float = 0.105
    p_background: float = 0.033


CORA_SPEC = CitationSpec(
    name="Cora",
    num_nodes=2708,
    num_undirected_edges=5429,
    num_features=1433,
    num_classes=7,
    train_per_class=20,
    n_val=500,
    n_test=1000,
)

PUBMED_SPEC = CitationSpec(
    name="PubMed",
    num_nodes=19717,
    num_undirected_edges=44338,
    num_features=500,
    num_classes=3,
    train_per_class=20,
    n_val=500,
    n_test=1000,
    intra_fraction=0.7,
    topic_words=30,
    p_topic=0.075,
    p_background=0.06,
)


def make_citation_dataset(spec: CitationSpec, seed: int = 0) -> NodeClassificationDataset:
    """Generate one synthetic citation network from its spec."""
    rng = np.random.default_rng(seed)
    n = spec.num_nodes
    labels = np.sort(rng.integers(0, spec.num_classes, size=n)).astype(np.int64)
    rng.shuffle(labels)  # random class assignment, roughly balanced

    # Oversample edges to compensate for dedupe, then trim.
    src, dst = planted_partition(
        labels, int(spec.num_undirected_edges * 1.12), spec.intra_fraction, rng
    )
    if len(src) > spec.num_undirected_edges:
        keep = rng.choice(len(src), size=spec.num_undirected_edges, replace=False)
        src, dst = src[keep], dst[keep]
    edge_index = undirected_edge_index(src, dst)

    # Bag-of-words features: class topics + background noise.
    x = np.empty((n, spec.num_features), dtype=np.float32)
    flat = x.ravel()
    for start, stop, uniform in random_blocks(rng, x.size):
        np.less(uniform, spec.p_background, out=flat[start:stop])
    words_per_class = spec.topic_words
    for c in range(spec.num_classes):
        members = np.flatnonzero(labels == c)
        start = (c * words_per_class) % max(spec.num_features - words_per_class, 1)
        topic = slice(start, start + words_per_class)
        hits = rng.random((len(members), words_per_class)) < spec.p_topic
        x[members, topic] += hits.astype(np.float32)
    np.clip(x, 0.0, 1.0, out=x)
    # ~96 % zeros: the input layer computes on the nonzeros (docs/cost_model.md).
    declare_sparse(x)

    graph = GraphSample(edge_index, x, labels)
    train_idx, val_idx, test_idx = planetoid_split(
        labels, spec.train_per_class, spec.n_val, spec.n_test, rng
    )
    return NodeClassificationDataset(
        spec.name, graph, spec.num_classes, train_idx, val_idx, test_idx
    )


def cora(seed: int = 0) -> NodeClassificationDataset:
    """Synthetic Cora (2708 nodes / 1433 features / 7 classes)."""
    return make_citation_dataset(CORA_SPEC, seed)


def pubmed(seed: int = 0) -> NodeClassificationDataset:
    """Synthetic PubMed (19717 nodes / 500 features / 3 classes)."""
    return make_citation_dataset(PUBMED_SPEC, seed)
