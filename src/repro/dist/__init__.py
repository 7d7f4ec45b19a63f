"""Distributed data-parallel training over the modelled interconnect.

The paper's Fig. 6 DataParallel loop serialises communication; this
package supplies the modern alternative the ROADMAP calls for:

* :class:`Communicator` — NCCL-style collectives (ring/tree all-reduce,
  broadcast, all-gather, reduce-scatter) scheduled as chunked transfers
  over a :class:`~repro.device.Fabric`, with bitwise-deterministic
  fixed-order reduction numerics.
* :class:`DistributedDataParallel` — grad hooks pack gradients into
  size-capped buckets whose all-reduces overlap the remaining backward.
* :class:`BatchConfig` — micro-batch x gradient-accumulation x replicas
  factoring of the effective global batch.

The trainer that drives all three lives in
:class:`repro.train.DDPTrainer`; the scaling deliverable is
``BENCH_scaling.json`` (the ``scaling`` record of :mod:`repro.bench.experiments`).
"""

from repro.dist.batch_config import BatchConfig
from repro.dist.comm import COMM_PHASE, CommStats, Communicator, reduce_fixed_order
from repro.dist.ddp import (
    DEFAULT_BUCKET_BYTES,
    DistributedDataParallel,
    GradBucket,
    collect_grads,
)

__all__ = [
    "BatchConfig",
    "COMM_PHASE",
    "CommStats",
    "Communicator",
    "reduce_fixed_order",
    "DEFAULT_BUCKET_BYTES",
    "DistributedDataParallel",
    "GradBucket",
    "collect_grads",
]
