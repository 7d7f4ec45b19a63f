"""Seeded million-node node-classification tasks over generated graphs.

Builds a :class:`ScaleNodeDataset` — a CSR-backed graph with features,
labels and splits — from the scalable generators
(:func:`~repro.graph.generators.rmat_edges`,
:func:`~repro.graph.generators.chung_lu_edges`).  Labels are contiguous
node-id blocks (one block per class); because both generators concentrate
edge mass near the diagonal / at low ids, block labels inherit a degree of
homophily without any dense intermediate.  Features are noisy class
centroids, so the task is learnable by a shallow GNN while still
benefiting from aggregation.

Everything is a pure function of ``(generator, sizes, seed)`` — the same
arguments always produce bitwise-identical graphs, features and splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.datasets.base import NodeClassificationDataset
from repro.graph import GraphSample
from repro.graph.big_graph import CSRBigGraph
from repro.graph.generators import chung_lu_edges, rmat_edges

GENERATORS = ("rmat", "chung_lu")


@dataclass
class ScaleNodeDataset:
    """A single large graph with per-node labels and index splits."""

    name: str
    graph: CSRBigGraph
    num_classes: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def num_features(self) -> int:
        return self.graph.num_features

    def to_node_dataset(self) -> NodeClassificationDataset:
        """Materialise a COO :class:`NodeClassificationDataset`.

        Used for full-graph baselines (the sampled-vs-full accuracy parity
        check); ``O(E)`` memory, so only sensible at smoke scale.
        """
        sample = GraphSample(self.graph.edge_index(), self.graph.x, self.graph.y)
        return NodeClassificationDataset(
            name=self.name,
            graph=sample,
            num_classes=self.num_classes,
            train_idx=self.train_idx,
            val_idx=self.val_idx,
            test_idx=self.test_idx,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ScaleNodeDataset({self.name!r}, nodes={self.graph.num_nodes}, "
                f"edges={self.graph.num_edges}, classes={self.num_classes})")


def make_scale_dataset(
    n_nodes: int,
    avg_degree: float = 8.0,
    n_classes: int = 8,
    n_features: int = 32,
    generator: str = "rmat",
    seed: int = 0,
    feature_signal: float = 2.0,
    train_fraction: float = 0.1,
    val_fraction: float = 0.05,
    test_fraction: float = 0.05,
    rmat_abc: Tuple[float, float, float] = (0.57, 0.19, 0.19),
    self_loops: bool = False,
) -> ScaleNodeDataset:
    """One seeded synthetic node-classification task at any scale.

    ``avg_degree`` counts *directed generated* edges per node; the CSR
    graph symmetrises them, so realised in-degrees average about twice
    that.  Splits are a seeded permutation sliced into train/val/test
    fractions.

    ``rmat_abc`` tunes the R-MAT quadrant probabilities; raising ``a``
    concentrates edges on the diagonal, which raises the homophily of the
    block labels (the knob the parity smoke graphs use so that GCN — whose
    DGL-style lowering has no self-loops — can learn from neighbours).

    ``self_loops`` appends one self-edge per node, the ``dgl.add_self_loop``
    preprocessing every DGL GCN example applies: without it the DGL-style
    ``GraphConv`` never sees a node's own features, so its accuracy rests
    entirely on neighbour homophily and diverges between the sampled and
    full-batch training regimes.
    """
    if generator not in GENERATORS:
        raise ValueError(f"unknown generator {generator!r}; options: {GENERATORS}")
    if n_classes < 1 or n_nodes < n_classes:
        raise ValueError("need at least one node per class")
    if train_fraction + val_fraction + test_fraction > 1.0:
        raise ValueError("split fractions exceed 1.0")
    rng = np.random.default_rng(seed)
    n_edges = int(round(n_nodes * avg_degree))
    if generator == "rmat":
        a, b, c = rmat_abc
        src, dst = rmat_edges(n_nodes, n_edges, rng, a=a, b=b, c=c)
    else:
        src, dst = chung_lu_edges(n_nodes, n_edges, rng)
    if self_loops:
        loops = np.arange(n_nodes, dtype=np.int64)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])

    # Contiguous id blocks as classes: both generators put correlated mass
    # near the diagonal, so block labels are homophilous without any
    # post-processing over the edge list.
    y = (np.arange(n_nodes, dtype=np.int64) * n_classes) // n_nodes
    centroids = rng.normal(0.0, 1.0, size=(n_classes, n_features))
    x = centroids[y] * feature_signal + rng.normal(0.0, 1.0, size=(n_nodes, n_features))

    graph = CSRBigGraph.from_edges(src, dst, n_nodes, x=x.astype(np.float32), y=y)

    order = rng.permutation(n_nodes)
    n_train = max(int(n_nodes * train_fraction), 1)
    n_val = max(int(n_nodes * val_fraction), 1)
    n_test = max(int(n_nodes * test_fraction), 1)
    return ScaleNodeDataset(
        name=f"{generator}-{n_nodes}",
        graph=graph,
        num_classes=n_classes,
        train_idx=np.sort(order[:n_train]),
        val_idx=np.sort(order[n_train:n_train + n_val]),
        test_idx=np.sort(order[n_train + n_val:n_train + n_val + n_test]),
    )
