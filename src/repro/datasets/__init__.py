"""Synthetic stand-ins for the paper's five datasets (Table I)."""

from repro.datasets.base import GraphClassificationDataset, NodeClassificationDataset
from repro.datasets.citation import CORA_SPEC, PUBMED_SPEC, cora, make_citation_dataset, pubmed
from repro.datasets.registry import (
    ALL_DATASETS,
    GRAPH_DATASETS,
    NODE_DATASETS,
    load_dataset,
)
from repro.datasets.splits import kfold_splits, planetoid_split, stratified_folds
from repro.datasets.statistics import DatasetStatistics, compute_statistics
from repro.datasets.superpixel import FULL_MNIST_SIZE, mnist_superpixels
from repro.datasets.tud import DD_SPEC, ENZYMES_SPEC, dd, enzymes, make_tu_dataset

__all__ = [
    "NodeClassificationDataset",
    "GraphClassificationDataset",
    "cora",
    "pubmed",
    "make_citation_dataset",
    "CORA_SPEC",
    "PUBMED_SPEC",
    "enzymes",
    "dd",
    "make_tu_dataset",
    "ENZYMES_SPEC",
    "DD_SPEC",
    "mnist_superpixels",
    "FULL_MNIST_SIZE",
    "load_dataset",
    "ALL_DATASETS",
    "NODE_DATASETS",
    "GRAPH_DATASETS",
    "kfold_splits",
    "planetoid_split",
    "stratified_folds",
    "compute_statistics",
    "DatasetStatistics",
]
