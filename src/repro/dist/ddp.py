"""DistributedDataParallel: bucketed gradient all-reduce during backward.

The wrapper reproduces the mechanism that lets DDP scale where the
paper's DataParallel loop cannot: gradients are packed into size-capped
buckets in reverse parameter order (the order backward produces them), and
the moment a bucket's last gradient lands, its all-reduce is launched on
the comm streams — *overlapped* with the rest of backward still running on
the default stream.  The host only meets the communication at
:meth:`DistributedDataParallel.finish_backward`, so well-overlapped steps
pay almost nothing for gradient sync.

Replica compute is modelled asymmetrically (see
:class:`~repro.train.DDPTrainer`): replica 0 runs on the measured device,
replicas ``1..N-1`` run on shadow devices and *stage* their gradients here
(:meth:`stage_remote_grads`) before replica 0's synchronised backward.
Reduction numerics are the communicator's canonical fixed-rank-order
float32 sum divided by the world size, so results never depend on bucket
layout or schedule.

With ``world_size == 1`` the wrapper is inert: no hooks are registered,
no kernels or host costs are added, and training is bitwise identical to
the unwrapped module — the parity tests pin this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.dist.comm import Communicator
from repro.nn.module import Module, Parameter

#: Default bucket capacity.  Small enough that the models of the paper's
#: graph tasks span several buckets (so overlap is observable), large
#: enough that per-collective launch overhead stays amortised.
DEFAULT_BUCKET_BYTES = 1 << 16


class GradBucket:
    """One all-reduce unit: consecutive (reversed-order) parameters."""

    def __init__(self, index: int, params: List[Tuple[str, Parameter]]) -> None:
        self.index = index
        self.params = params
        self.nbytes = int(sum(p.nbytes for _, p in params))
        #: Parameter names still waiting for a gradient this backward.
        self.pending = {name for name, _ in params}

    def reset(self) -> None:
        self.pending = {name for name, _ in self.params}

    @property
    def complete(self) -> bool:
        return not self.pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"GradBucket({self.index}, params={len(self.params)}, "
                f"nbytes={self.nbytes})")


class DistributedDataParallel:
    """Wrap a module for data-parallel gradient averaging.

    Calls forward through to the wrapped module unchanged (no extra scope,
    no extra kernels).  During a synchronised backward on the measured
    replica, post-accumulate-grad hooks fire per parameter; when a bucket
    completes, its gradients — together with the staged gradients of every
    remote replica — are all-reduced with ``op="mean"`` and written back
    into ``param.grad``, so a subsequent ``optimizer.step()`` applies the
    replica-averaged gradient.
    """

    def __init__(
        self,
        module: Module,
        comm: Communicator,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        algorithm: str = "auto",
    ) -> None:
        if bucket_bytes < 1:
            raise ValueError("bucket_bytes must be positive")
        self.module = module
        self.comm = comm
        self.world_size = comm.world_size
        self.bucket_bytes = int(bucket_bytes)
        self.algorithm = algorithm
        self._sync_enabled = True
        #: Per-remote-rank gradients staged for the next synchronised
        #: backward: ``{rank: {param_name: np.ndarray}}``.
        self._staged: Dict[int, Dict[str, np.ndarray]] = {}
        self._named: List[Tuple[str, Parameter]] = list(module.named_parameters())
        self.buckets: List[GradBucket] = []
        self._bucket_of: Dict[str, GradBucket] = {}
        self._hook_handles: List[Callable[[], None]] = []
        if self.world_size > 1:
            self._build_buckets()
            self._register_hooks()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_buckets(self) -> None:
        """Pack parameters into buckets in reverse declaration order.

        Backward reaches the last layers first, so reversing the parameter
        list means early buckets complete early in backward — maximising
        how much backward remains to overlap their all-reduce with.
        """
        current: List[Tuple[str, Parameter]] = []
        size = 0
        for name, param in reversed(self._named):
            if not param.requires_grad:
                continue
            if current and size + param.nbytes > self.bucket_bytes:
                self.buckets.append(GradBucket(len(self.buckets), current))
                current, size = [], 0
            current.append((name, param))
            size += param.nbytes
        if current:
            self.buckets.append(GradBucket(len(self.buckets), current))
        for bucket in self.buckets:
            for name, _ in bucket.params:
                self._bucket_of[name] = bucket

    def _register_hooks(self) -> None:
        for name, param in self._named:
            if not param.requires_grad:
                continue

            def hook(_tensor, name=name):
                self._on_grad_ready(name)

            self._hook_handles.append(
                param.register_post_accumulate_grad_hook(hook))

    # ------------------------------------------------------------------
    # forward delegation
    # ------------------------------------------------------------------
    def __call__(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    def parameters(self) -> Iterator[Parameter]:
        return self.module.parameters()

    def named_parameters(self):
        return self.module.named_parameters()

    def train(self) -> None:
        self.module.train()

    def eval(self) -> None:
        self.module.eval()

    # ------------------------------------------------------------------
    # gradient synchronisation
    # ------------------------------------------------------------------
    @contextmanager
    def no_sync(self) -> Iterator[None]:
        """Suppress bucket bookkeeping inside the block.

        Used for all but the last micro-batch of a gradient-accumulation
        group, and for shadow replicas' backward passes (their gradients
        arrive via :meth:`stage_remote_grads` instead).
        """
        previous = self._sync_enabled
        self._sync_enabled = False
        try:
            yield
        finally:
            self._sync_enabled = previous

    def stage_remote_grads(self, rank: int,
                           grads: Dict[str, np.ndarray]) -> None:
        """Deposit replica ``rank``'s gradients for the next sync.

        ``grads`` maps parameter names to arrays; missing names reduce as
        zeros.  Must be called for every rank in ``1..world_size-1``
        before the measured replica's synchronised backward completes a
        bucket.
        """
        if not 1 <= rank < self.world_size:
            raise ValueError(
                f"rank must be in [1, {self.world_size - 1}], got {rank}")
        known = {name for name, _ in self._named}
        unknown = set(grads) - known
        if unknown:
            raise ValueError(f"staged gradients for unknown parameters: "
                             f"{sorted(unknown)}")
        self._staged[rank] = {name: np.asarray(g, dtype=np.float32).copy()
                              for name, g in grads.items()}

    def _on_grad_ready(self, name: str) -> None:
        if not self._sync_enabled:
            return
        bucket = self._bucket_of.get(name)
        if bucket is None or name not in bucket.pending:
            return
        bucket.pending.discard(name)
        if bucket.complete:
            self._reduce_bucket(bucket)

    def _flatten(self, bucket: GradBucket,
                 lookup: Callable[[str, Parameter], Optional[np.ndarray]]) -> np.ndarray:
        parts = []
        for name, param in bucket.params:
            grad = lookup(name, param)
            if grad is None:
                grad = np.zeros(param.shape, dtype=np.float32)
            parts.append(np.asarray(grad, dtype=np.float32).reshape(-1))
        return np.concatenate(parts)

    def _reduce_bucket(self, bucket: GradBucket) -> None:
        """All-reduce one bucket across replicas and write back the mean."""
        missing = [r for r in range(1, self.world_size)
                   if r not in self._staged]
        if missing:
            raise RuntimeError(
                f"bucket {bucket.index} is ready but replicas {missing} have "
                f"not staged gradients; run shadow replicas (under no_sync) "
                f"and stage_remote_grads() before the synchronised backward"
            )
        flats = [self._flatten(bucket, lambda name, p: p.grad)]
        for rank in range(1, self.world_size):
            staged = self._staged[rank]
            flats.append(self._flatten(bucket,
                                       lambda name, p: staged.get(name)))
        reduced = self.comm.all_reduce(flats, op="mean",
                                       algorithm=self.algorithm,
                                       label=f"bucket{bucket.index}")
        offset = 0
        for name, param in bucket.params:
            chunk = reduced[offset:offset + param.size]
            grad = np.ascontiguousarray(chunk.reshape(param.shape))
            self.comm.device.track(grad)
            param.grad = grad
            offset += param.size

    def finish_backward(self) -> None:
        """Flush stragglers and meet the in-flight collectives.

        Buckets whose parameters were partially touched this backward
        (e.g. a head not exercised by this batch) are reduced with zeros
        for the missing gradients; buckets never touched at all stay
        local.  The residual communication wait — whatever all-reduce time
        backward could not hide — is paid here under the ``comm`` phase.
        No-op at ``world_size == 1``.
        """
        if self.world_size == 1:
            return
        for bucket in self.buckets:
            if bucket.pending and len(bucket.pending) < len(bucket.params):
                self._reduce_bucket(bucket)
        self.comm.synchronize()
        self._staged.clear()
        for bucket in self.buckets:
            bucket.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DistributedDataParallel(world_size={self.world_size}, "
                f"buckets={len(self.buckets)})")


def collect_grads(named: Sequence[Tuple[str, Parameter]]) -> Dict[str, np.ndarray]:
    """Snapshot current gradients by name (copies; ``None`` grads skipped)."""
    return {name: np.asarray(p.grad, dtype=np.float32).copy()
            for name, p in named if p.grad is not None}
