"""The one network skeleton every framework pack builds.

Section III-C compares frameworks on "the same types and sizes of
corresponding layers"; this module states that wiring once.  Every net is:
input dropout before each conv (when the config has one) -> ``conv1`` ..
``convL`` -> either per-node logits (node classification: the last conv
emits raw class logits) or a mean readout plus :class:`MLPReadout` (graph
classification, Section IV-B.4).  Convs are attributes ``conv1`` ..
``convL`` so profiler scopes line up with the paper's Fig. 3 labels, under
a root scope named after the model (``GCNNet``, ``GATNet``, ...).

A pack supplies only a :class:`Lowering`: its conv class per model, how one
conv runs on its batch type, and its readout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

import numpy as np

from repro.models.config import ModelConfig
from repro.models.mlp import MLPReadout
from repro.nn import Dropout, Module
from repro.tensor import Tensor

#: Root profiler scope of each model's net.
_SCOPES = {
    "gcn": "GCNNet",
    "gin": "GINNet",
    "sage": "SAGENet",
    "gat": "GATNet",
    "monet": "MoNetNet",
    "gatedgcn": "GatedGCNNet",
}


@dataclass(frozen=True)
class Lowering:
    """What a framework pack supplies to :class:`Net`."""

    #: Model name -> the pack's conv class for that model.
    convs: Mapping[str, type]
    #: ``features(batch)`` -> the batch's input node features.
    features: Callable
    #: ``run(conv, batch, h)`` -> one conv's output on ``batch``.
    run: Callable
    #: ``readout(batch, h)`` -> the per-graph mean of node features ``h``.
    readout: Callable
    #: Put before the model's root scope name (``"Dense"`` -> ``DenseGCNNet``).
    scope_prefix: str


def _widths(config: ModelConfig) -> List[Tuple[int, int]]:
    """(in, out) feature widths of ``conv1`` .. ``convL`` (Tables II/III).

    GAT's ``hidden`` is the total width of a node classifier's hidden conv,
    but the width of one head in the graph task, whose heads concatenate.
    """
    hidden, last = config.hidden, config.out_dim
    if config.model == "gat" and config.task == "node":
        last = config.n_classes
    elif config.model == "gat":
        hidden = config.hidden * config.n_heads
    widths = [config.in_dim] + [hidden] * (config.n_layers - 1) + [last]
    return list(zip(widths[:-1], widths[1:]))


def _conv(conv_cls: type, config: ModelConfig, index: int, d_in: int, d_out: int, rng) -> Module:
    """``conv<index + 1>`` from the model's constructor arguments, the same on every pack."""
    # The last conv of a node classifier emits raw class logits.
    activation = not (config.task == "node" and index == config.n_layers - 1)
    if config.model == "gat":
        if not activation:  # one head of class logits, as in the original GAT
            return conv_cls(d_in, d_out, heads=1, rng=rng, concat_heads=False)
        return conv_cls(d_in, max(d_out // config.n_heads, 1), config.n_heads, rng=rng)
    if config.model == "gin":
        return conv_cls(d_in, d_out, rng, learn_eps=config.learn_eps_gin, activation=activation)
    if config.model == "monet":
        return conv_cls(d_in, d_out, config.kernels, config.pseudo_dim, rng, activation=activation)
    return conv_cls(d_in, d_out, rng, activation=activation)


class Net(Module):
    """One model's network, lowered onto one pack's convs and batch type."""

    def __init__(
        self, config: ModelConfig, lowering: Lowering, rng: Optional[np.random.Generator] = None
    ) -> None:
        super().__init__()
        object.__setattr__(self, "_scope_name", lowering.scope_prefix + _SCOPES[config.model])
        self.config = config
        self.lowering = lowering
        rng = rng or np.random.default_rng()
        self.dropout = Dropout(config.dropout, rng=rng) if config.dropout else None
        conv_cls = lowering.convs[config.model]
        self.conv_names: List[str] = []
        for i, (d_in, d_out) in enumerate(_widths(config)):
            name = f"conv{i + 1}"
            setattr(self, name, _conv(conv_cls, config, i, d_in, d_out, rng))
            self.conv_names.append(name)
        if config.task == "graph":
            self.classifier = MLPReadout(config.out_dim, config.n_classes, rng=rng)

    def forward(self, batch) -> Tensor:
        h = self.lowering.features(batch)
        for name in self.conv_names:
            if self.dropout is not None:
                h = self.dropout(h)
            h = self.lowering.run(getattr(self, name), batch, h)
        if self.config.task == "node":
            return h
        return self.classifier(self.lowering.readout(batch, h))
