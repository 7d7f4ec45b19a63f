"""Dataset registry: load any paper dataset by name, with caching.

Generation of the larger synthetic sets (PubMed, DD) costs seconds, so
repeated loads within one process are cached by ``(name, seed, size)``.
"""

from __future__ import annotations

from typing import Dict, Tuple, Union

from repro.datasets.base import GraphClassificationDataset, NodeClassificationDataset
from repro.datasets.citation import cora, pubmed
from repro.datasets.superpixel import mnist_superpixels
from repro.datasets.tud import dd, enzymes

Dataset = Union[NodeClassificationDataset, GraphClassificationDataset]

_CACHE: Dict[Tuple[str, int, int], Dataset] = {}

NODE_DATASETS = ("cora", "pubmed")
GRAPH_DATASETS = ("enzymes", "dd", "mnist")
ALL_DATASETS = NODE_DATASETS + GRAPH_DATASETS


def load_dataset(name: str, seed: int = 0, num_graphs: int = 0) -> Dataset:
    """Load a paper dataset by (case-insensitive) name.

    ``num_graphs`` scales down the graph-classification sets for quick runs
    (0 = the paper's full size; for MNIST the default subset is 2000 graphs,
    see :mod:`repro.datasets.superpixel`).
    """
    key = (name.lower(), seed, num_graphs)
    if key in _CACHE:
        return _CACHE[key]
    lowered = name.lower()
    if lowered == "cora":
        ds: Dataset = cora(seed)
    elif lowered == "pubmed":
        ds = pubmed(seed)
    elif lowered == "enzymes":
        ds = enzymes(seed, num_graphs)
    elif lowered == "dd":
        ds = dd(seed, num_graphs)
    elif lowered == "mnist":
        ds = mnist_superpixels(num_graphs or 2000, seed)
    else:
        raise KeyError(f"unknown dataset {name!r}; options: {ALL_DATASETS}")
    _CACHE[key] = ds
    return ds
