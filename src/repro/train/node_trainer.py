"""Full-batch node classification training (Table IV protocol).

Section IV-A: Cora/PubMed, full-batch (all training nodes every epoch),
2-layer models, Adam, a maximum of 200 epochs; per-epoch time and final test
accuracy are reported.  The graph is moved to the device once before
training (so per-epoch time contains no data loading, matching the paper's
node-classification setting), each epoch runs one forward/backward/update
and one no-grad validation pass, and the test accuracy is taken at the
best-validation epoch.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.base import NodeClassificationDataset
from repro.device import Device
from repro.models import ModelConfig, node_config
from repro.nn import accuracy, cross_entropy
from repro.packs import get_pack
from repro.tensor import Tensor, index_rows, no_grad
from repro.train.loop import Protocol, run_epochs, train_step
from repro.train.results import ExperimentResult, RunResult


class NodeClassificationTrainer:
    """Trains one (framework, model) pair on a citation dataset."""

    def __init__(
        self,
        framework: str,
        model_name: str,
        dataset: NodeClassificationDataset,
        max_epochs: int = 200,
        config: Optional[ModelConfig] = None,
        device: Optional[Device] = None,
    ) -> None:
        self.pack = get_pack(framework)
        self.framework = framework
        self.model_name = model_name
        self.dataset = dataset
        self.max_epochs = max_epochs
        self.config = config or node_config(
            model_name, in_dim=dataset.num_features, n_classes=dataset.num_classes
        )
        self.device = device or Device()

    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> RunResult:
        """One training run; returns per-epoch records and the test acc."""
        ds = self.dataset

        def protocol(model, optimizer, rng):
            # The full graph moves to the device once, not per epoch.  A
            # one-graph batch is the graph: its features, edges and per-node
            # labels are read-only views of the dataset's arrays.
            batch, labels = self.pack.collate([ds.graph])
            # Both logits tensors stay referenced until the next epoch
            # replaces them, as they would in a training script's local
            # variables, and so count toward the reported peak memory.
            train_logits = val_logits = None

            def loss_fn(logits):
                nonlocal train_logits
                train_logits = logits
                return cross_entropy(index_rows(logits, ds.train_idx), labels[ds.train_idx])

            def subset(idx):
                return Tensor(val_logits.data[idx]), labels[idx]

            def evaluate(epoch):
                # One no-grad forward serves validation and, at a new best
                # validation accuracy, the test split.
                nonlocal val_logits
                model.eval()
                with no_grad():
                    val_logits = model(batch)
                val_acc = accuracy(*subset(ds.val_idx))
                with no_grad():
                    val_loss = cross_entropy(*subset(ds.val_idx)).item()
                return val_loss, val_acc

            return Protocol(
                batches=lambda epoch: [(batch,)],
                step=train_step(model, optimizer, self.device.clock, loss_fn),
                evaluate=evaluate,
                test=lambda epoch: accuracy(*subset(ds.test_idx)),
            )

        return run_epochs(
            self.device, self.pack, self.config, seed, self.max_epochs, protocol
        )

    # ------------------------------------------------------------------
    def run_seeds(self, seeds=(0, 1, 2, 3)) -> ExperimentResult:
        """Aggregate multiple seeds into a Table IV cell."""
        runs = [self.run(seed) for seed in seeds]
        return ExperimentResult.from_runs(
            self.framework, self.model_name, self.dataset.name, runs,
            epoch_times=[r.mean_full_epoch_time for r in runs],
        )
