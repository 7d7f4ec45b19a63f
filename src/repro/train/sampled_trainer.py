"""Sampled mini-batch node-classification training (large-graph regime).

The GraphSAGE training protocol at scale: instead of the full-batch Table
IV loop (whole graph resident on the device), every step trains on a
fanout-sampled subgraph around a shuffled chunk of training seeds, so
peak device memory is bounded by the batch's sampled support rather than
the graph — the only way a million-node graph trains under a real memory
cap.

Wired through both framework packs' ``NeighborLoader``\\ s and composing
with the existing execution stack: ``prefetch=True`` pipelines
sampling+collation behind compute (the packs' ``PrefetchDataLoader``),
``compile=True`` captures the per-batch train step through
``repro.compile`` (sampled batches of differing node counts share one
plan — the structural-signature bucketing).  Epochs report the
``sampling`` phase alongside data_loading/forward/backward/update.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.device import Device, use_device
from repro.models import ModelConfig, node_config
from repro.nn import accuracy, cross_entropy
from repro.packs import get_pack
from repro.scale.dataset import ScaleNodeDataset
from repro.tensor import index_rows, no_grad
from repro.train.loop import Protocol, run_epochs, train_step
from repro.train.results import RunResult


class SampledNodeTrainer:
    """Fanout-sampled mini-batch trainer for one (framework, model) pair.

    ``fanouts`` set both the sampler and the model depth
    (``n_layers = len(fanouts)``) so every conv layer aggregates over
    sampled support.  ``max_batches`` trims each training epoch for
    timing-focused benches.
    """

    def __init__(
        self,
        framework: str,
        model_name: str,
        dataset: ScaleNodeDataset,
        fanouts: Sequence[int] = (10, 10),
        batch_size: int = 1024,
        max_epochs: int = 5,
        config: Optional[ModelConfig] = None,
        device: Optional[Device] = None,
        compile: bool = False,
        prefetch: bool = False,
        max_batches: Optional[int] = None,
        ensure_self_loops: bool = False,
        full_graph_norm: bool = False,
    ) -> None:
        self.pack = get_pack(framework)
        self.framework = framework
        self.model_name = model_name
        self.dataset = dataset
        self.fanouts = tuple(int(f) for f in fanouts)
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.config = config or node_config(
            model_name,
            in_dim=dataset.num_features,
            n_classes=dataset.num_classes,
            n_layers=len(self.fanouts),
        )
        if self.config.n_layers != len(self.fanouts):
            raise ValueError(
                f"model depth {self.config.n_layers} needs one fanout per "
                f"layer, got {len(self.fanouts)}"
            )
        self.device = device or Device()
        self.compile = compile
        self.prefetch = prefetch
        self.max_batches = max_batches
        self.ensure_self_loops = ensure_self_loops
        self.full_graph_norm = full_graph_norm
        #: The :class:`~repro.compile.CompiledStep` of the latest
        #: :meth:`run` when ``compile=True`` (for its replay stats).
        self.compiled_step = None
        #: The trained network from the latest :meth:`run`.
        self.final_model = None

    # ------------------------------------------------------------------
    def _loader(self, seeds, batch_size, shuffle: bool, rng, prefetch: bool):
        loader = self.pack.neighbor_loader(
            self.dataset.graph, seeds, self.fanouts, batch_size,
            shuffle=shuffle, rng=rng,
            ensure_self_loops=self.ensure_self_loops,
            full_graph_norm=self.full_graph_norm,
        )
        return self.pack.prefetch(loader) if prefetch else loader

    def _evaluate(self, model, loader) -> float:
        """Seed-row accuracy over a loader, gradient-free."""
        model.eval()
        correct, total = 0.0, 0
        with no_grad():
            for inputs, labels, n_seeds in map(self.pack.unpack, loader):
                logits = model(inputs)
                seed_rows = index_rows(logits, np.arange(n_seeds, dtype=np.int64))
                correct += accuracy(seed_rows, labels) * n_seeds
                total += n_seeds
        return correct / max(total, 1)

    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> RunResult:
        """One sampled training run; returns per-epoch records and test acc.

        Validation runs a sampled inference pass per epoch; the reported
        ``test_acc`` is taken at the best-validation epoch, like the
        full-batch trainer.  Deterministic for a fixed ``seed``.
        """
        ds = self.dataset

        def protocol(model, optimizer, rng):
            self.final_model = model
            # The sampler gets its own RNG stream: sharing ``rng`` with the
            # model's dropout would make the numerics depend on *when*
            # batches are sampled, so prefetching (which pumps batches
            # ahead of the compute that consumes them) would change the
            # dropout masks.  Separate streams keep prefetch=True bitwise
            # identical to serial iteration.
            train_loader = self._loader(
                ds.train_idx, self.batch_size, shuffle=True,
                rng=np.random.default_rng(seed + 5_000),
                prefetch=self.prefetch,
            )
            step = train_step(
                model, optimizer, self.device.clock,
                lambda logits, labels, seed_rows: cross_entropy(
                    index_rows(logits, seed_rows), labels
                ),
                compile=self.compile,
            )
            self.compiled_step = step if self.compile else None

            def batches(epoch):
                for i, (inputs, labels, n_seeds) in enumerate(
                    map(self.pack.unpack, train_loader)
                ):
                    # The loader has already sampled and collated batch
                    # number ``max_batches`` when the epoch is cut; that
                    # cost is part of the committed BENCH_scale.json times.
                    if self.max_batches is not None and i >= self.max_batches:
                        return
                    yield inputs, labels, np.arange(n_seeds, dtype=np.int64)

            # Fresh per-epoch eval rng: evaluation sampling stays
            # deterministic and independent of how many training
            # batches ran.
            return Protocol(
                batches=batches,
                step=step,
                evaluate=lambda epoch: (
                    0.0, self.sampled_accuracy(model, ds.val_idx, seed + 7_000 + epoch)
                ),
                test=lambda epoch: self.sampled_accuracy(
                    model, ds.test_idx, seed + 9_000 + epoch
                ),
            )

        return run_epochs(
            self.device, self.pack, self.config, seed, self.max_epochs, protocol
        )

    # ------------------------------------------------------------------
    def sampled_accuracy(self, model, seeds: np.ndarray, seed: int = 0) -> float:
        """Sampled-inference accuracy of ``model`` over arbitrary seeds."""
        with use_device(self.device):
            loader = self._loader(
                np.asarray(seeds, dtype=np.int64), self.batch_size,
                shuffle=False, rng=seed, prefetch=False,
            )
            return self._evaluate(model, loader)
