"""Multi-GPU (DataParallel) training simulation — Fig. 6.

Section IV-E: GCN and GAT on MNIST superpixels, data parallelism via
PyTorch's ``DataParallel``, 1/2/4/8 GPUs, several batch sizes.  Per
iteration the mini-batch is split across replicas; since replicas are
symmetric, the wall time of the compute phase equals one replica's time on
``batch_size / n_gpus`` graphs — obtained by *actually running* the model
on one representative sub-batch — plus the parameter broadcast, input
scatter, output gather and gradient reduction of
:func:`charge_iteration_overhead`.  ``DataParallel`` loops over the
replicas sequentially for each of those, so the overhead grows with the
GPU count: what flattens and then reverses the scaling between 4 and 8
GPUs in Fig. 6.

Data loading (collation) stays on the host process and is *not* divided by
the GPU count — exactly why the paper finds that "training models on
multiple GPUs can only reduce the computing time" while loading dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.datasets.base import GraphClassificationDataset
from repro.device import Device
from repro.loader import loading
from repro.models import ModelConfig, graph_config
from repro.nn import cross_entropy
from repro.packs import get_pack
from repro.train.loop import Protocol, run_epochs, train_step


@dataclass(frozen=True)
class DataParallelPlan:
    """Communication plan for one DataParallel iteration."""

    n_gpus: int
    param_bytes: int
    input_bytes: int
    output_bytes: int

    def __post_init__(self) -> None:
        if self.n_gpus < 1:
            raise ValueError("n_gpus must be >= 1")


def charge_iteration_overhead(device: Device, plan: DataParallelPlan) -> float:
    """Charge the communication cost of one DataParallel iteration.

    Returns the seconds charged.  With one GPU there is no communication,
    matching ``DataParallel``'s single-device fast path.
    """
    if plan.n_gpus == 1:
        return 0.0
    n = plan.n_gpus
    spec = device.spec
    seconds = 0.0
    # Broadcast parameters to each non-root replica (sequential copies).
    seconds += (n - 1) * spec.transfer_time(plan.param_bytes)
    # Scatter: each replica receives 1/n of the batch.
    seconds += n * spec.transfer_time(plan.input_bytes / n)
    # Gather outputs back to the root.
    seconds += n * spec.transfer_time(plan.output_bytes / n)
    # Reduce gradients (same size as parameters) from each replica.
    seconds += (n - 1) * spec.transfer_time(plan.param_bytes)
    device.host(seconds)
    return seconds


def _batch_nbytes(graphs) -> int:
    return int(
        sum(g.x.nbytes + g.edge_index.nbytes for g in graphs)
    )


def multi_gpu_epoch_time(
    framework: str,
    model_name: str,
    dataset: GraphClassificationDataset,
    batch_size: int,
    n_gpus: int,
    device: Optional[Device] = None,
    max_batches: Optional[int] = None,
    seed: int = 0,
    config: Optional[ModelConfig] = None,
) -> float:
    """Simulated seconds per epoch of DataParallel training.

    ``max_batches`` bounds the measured batches; the result is scaled back
    to a full epoch (every batch has the same expected cost).
    """
    pack = get_pack(framework)
    if n_gpus < 1:
        raise ValueError("n_gpus must be >= 1")
    if batch_size < n_gpus:
        raise ValueError("batch size must be at least one graph per GPU")
    device = device or Device()
    config = config or graph_config(
        model_name, in_dim=dataset.num_features, n_classes=dataset.num_classes
    )
    graphs: List = list(dataset.graphs)
    n_batches_total = (len(graphs) + batch_size - 1) // batch_size
    starts = range(0, len(graphs), batch_size)[:max_batches]
    if not starts:
        return 0.0
    costs = device.host_costs
    clock = device.clock

    def protocol(model, optimizer, rng):
        param_bytes = model.param_bytes()

        def batches(epoch):
            for start in starts:
                chunk = graphs[start : start + batch_size]
                per_gpu = max(len(chunk) // n_gpus, 1)
                replica_graphs = chunk[:per_gpu]

                # Representative replica's collation (full simulated cost)...
                with loading(device, len(chunk)):
                    inputs, labels = pack.collate(replica_graphs)
                    # ...plus the host cost of collating the other replicas'
                    # shares (DataParallel collates serially on the host).
                    others = len(chunk) - len(replica_graphs)
                    if others > 0:
                        other_bytes = _batch_nbytes(chunk[per_gpu:])
                        extra = pack.collate_host_cost(costs, n_gpus - 1, others)
                        device.host(extra + costs.batch_per_byte * other_bytes)
                        device.transfer(other_bytes)

                plan = DataParallelPlan(
                    n_gpus=n_gpus,
                    param_bytes=param_bytes,
                    input_bytes=_batch_nbytes(chunk),
                    output_bytes=4 * len(chunk) * config.n_classes,
                )
                charge_iteration_overhead(device, plan)
                yield inputs, labels

        # Timing only: one pass, nothing to validate or test.
        return Protocol(
            batches=batches,
            step=train_step(model, optimizer, clock, cross_entropy),
            evaluate=lambda epoch: (0.0, 0.0),
            test=lambda epoch: 0.0,
        )

    measured = run_epochs(device, pack, config, seed, 1, protocol).total_time
    return measured / len(starts) * n_batches_total
