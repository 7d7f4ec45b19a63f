"""Data-parallel training with bucketed all-reduce — the DDP counterpart
to the Fig. 6 DataParallel simulation.

A :class:`DDPTrainer` runs the Table V training protocol across
``BatchConfig.replicas`` data-parallel replicas:

* Replica 0 executes on the measured device, phase-instrumented exactly
  like :class:`~repro.train.GraphClassificationTrainer` (plus a ``comm``
  phase for gradient synchronisation).
* Replicas ``1..N-1`` execute the same micro-batches-worth of work on
  *shadow* devices — their numerics are real (each computes gradients of
  its own disjoint data shard against the shared parameters) but their
  time lands on discarded clocks, the same replica-symmetry assumption
  :mod:`repro.train.multi_gpu` makes for DataParallel.
* Shadow gradients are staged into the
  :class:`~repro.dist.DistributedDataParallel` wrapper, whose grad hooks
  launch bucket all-reduces *during* replica 0's backward; the residual
  wait is paid in :meth:`~repro.dist.DistributedDataParallel.finish_backward`
  before the optimizer step.

At ``world_size == 1`` (and ``grad_accumulation == 1``) the op and RNG
sequence is identical to the single-device trainer, so losses match
bitwise — eager or compiled, either framework.  Gradient accumulation
scales each micro-loss by ``1/k``, making the accumulated gradient equal
(to float tolerance) to the full replica-batch gradient.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import islice
from typing import Callable, Optional, Tuple

import numpy as np

from repro.datasets.base import GraphClassificationDataset
from repro.device import Device, LinkSpec, NVLINK, use_device
from repro.dist import (
    BatchConfig,
    Communicator,
    DEFAULT_BUCKET_BYTES,
    DistributedDataParallel,
    collect_grads,
)
from repro.models import ModelConfig
from repro.nn import cross_entropy
from repro.train.graph_trainer import GraphClassificationTrainer
from repro.train.loop import train_step
from repro.train.results import RunResult

#: Phase breakdown of a DDP epoch (Fig. 1/2 phases plus gradient sync).
DDP_PHASES = ("data_loading", "forward", "backward", "comm", "update")


class DDPTrainer(GraphClassificationTrainer):
    """Trains one (framework, model) pair data-parallel over replicas."""

    def __init__(
        self,
        framework: str,
        model_name: str,
        dataset: GraphClassificationDataset,
        batch: BatchConfig,
        max_epochs: int = 1000,
        config: Optional[ModelConfig] = None,
        device: Optional[Device] = None,
        compile: bool = False,
        prefetch: bool = False,
        link: LinkSpec = NVLINK,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
    ) -> None:
        super().__init__(
            framework,
            model_name,
            dataset,
            batch_size=batch.micro_batch_size,
            max_epochs=max_epochs,
            config=config,
            device=device,
            compile=compile,
            prefetch=prefetch,
        )
        self.batch = batch
        self.world_size = batch.replicas
        self.link = link
        self.bucket_bytes = bucket_bytes
        #: The :class:`~repro.dist.Communicator` of the most recent
        #: :meth:`run_fold` (for its collective stats and fabric).
        self.communicator: Optional[Communicator] = None
        #: The :class:`~repro.dist.DistributedDataParallel` wrapper of the
        #: most recent :meth:`run_fold`.
        self.ddp: Optional[DistributedDataParallel] = None

    # ------------------------------------------------------------------
    def run_fold(
        self,
        train_idx: np.ndarray,
        val_idx: np.ndarray,
        test_idx: np.ndarray,
        seed: int = 0,
        state_path=None,
        resume: bool = False,
    ) -> RunResult:
        """Train one fold data-parallel; returns the usual :class:`RunResult`.

        Checkpointing (``state_path``/``resume``) is not supported under
        DDP; both must stay at their defaults.
        """
        if state_path is not None or resume:
            raise NotImplementedError("DDPTrainer does not checkpoint runs")
        return super().run_fold(train_idx, val_idx, test_idx, seed)

    # ------------------------------------------------------------------
    def _train_protocol(
        self, model, optimizer, graphs, rng: np.random.Generator
    ) -> Tuple[Callable, Callable]:
        """``(batches, step)`` of the data-parallel protocol.

        ``batches`` yields, per optimizer step, every replica's group of up
        to ``grad_accumulation`` micro-batches from its shard loader;
        ``step`` runs the shadow replicas, then replica 0's micro-steps
        (synchronising on the last), then the update.
        """
        world = self.world_size
        accum = self.batch.grad_accumulation
        if world > 1:
            # One draw seeds *identical* loader RNGs on every replica:
            # same permutation everywhere, so the strided shards are
            # disjoint (repro.loader.shard_order).
            loader_seed = int(rng.integers(2 ** 63))
            rngs = [np.random.default_rng(loader_seed) for _ in range(world)]
        else:
            # Same RNG threading as the single-device trainer — the
            # basis of the world_size=1 bitwise-parity guarantee.
            rngs = [rng]
        loaders = [
            self.pack.graph_loader(graphs, self.batch_size, shuffle=True,
                                   rng=rngs[r], rank=r, world_size=world)
            for r in range(world)
        ]
        if self.prefetch:
            # Prefetch pipelines replica 0 (the measured timeline); shadow
            # replicas' loading time is discarded with their clocks anyway.
            loaders[0] = self.pack.prefetch(loaders[0])

        comm = Communicator(world, device=self.device, link=self.link)
        ddp = DistributedDataParallel(model, comm, bucket_bytes=self.bucket_bytes)
        self.communicator, self.ddp = comm, ddp
        shadows = [Device(self.device.spec, self.device.host_costs)
                   for _ in range(world - 1)]
        clock = self.device.clock
        named = list(model.named_parameters())
        inv_accum = 1.0 / accum

        def loss_fn(logits, labels):
            # Scaled by 1/accum so the accumulated gradient is the mean
            # over the replica batch; reported losses are scaled back.
            loss = cross_entropy(logits, labels)
            return loss * inv_accum if accum > 1 else loss

        # Forward + backward of one micro-batch; the update waits for the
        # whole group.  Shadows always run eagerly (their clocks are
        # discarded), replica 0 through the compiled step when asked.
        shadow_micro = train_step(model, optimizer, clock, loss_fn, update=False)
        micro = train_step(model, optimizer, clock, loss_fn,
                           compile=self.compile, update=False)
        self.compiled_step = micro if self.compile else None

        def batches(epoch):
            iters = [map(self.pack.unpack, loader) for loader in loaders]
            # Up to ``accum`` micro-batches per replica (fewer at the tail).
            while True:
                groups = [list(islice(iters[0], accum))]
                if not groups[0]:
                    return
                for r in range(1, world):
                    with use_device(shadows[r - 1]):
                        groups.append(list(islice(iters[r], len(groups[0]))))
                yield (groups,)

        def step(groups):
            losses = []
            # Shadow replicas first: their gradients must be staged
            # before replica 0's synchronised backward fires hooks.
            for r in range(1, world):
                with use_device(shadows[r - 1]):
                    with ddp.no_sync():
                        for i, (inputs, labels) in enumerate(groups[r]):
                            loss = shadow_micro(inputs, labels, zero_grad=i == 0)
                            losses.append(loss.item() * accum)
                    ddp.stage_remote_grads(r, collect_grads(named))
            last = len(groups[0]) - 1
            for i, (inputs, labels) in enumerate(groups[0]):
                with ddp.no_sync() if world > 1 and i < last else nullcontext():
                    loss = micro(inputs, labels, zero_grad=i == 0)
                losses.append(loss.item() * accum)
            with clock.phase("update"):
                ddp.finish_backward()
                optimizer.step()
            return np.mean(losses)

        return batches, step
