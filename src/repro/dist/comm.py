"""Collective communication primitives over the modelled fabric.

A :class:`Communicator` plays the role NCCL plays under
``torch.distributed``: ring and tree all-reduce, broadcast, all-gather and
reduce-scatter, scheduled as chunked send/recv transfers over the
point-to-point links of a :class:`~repro.device.Fabric` and landing on one
*comm stream per replica* (``replica{r}/comm``) on the measured device.

Two properties are load-bearing:

* **Bitwise-deterministic numerics.**  Every reduction computes the
  canonical fixed-order sum ``(((a_0 + a_1) + a_2) + ...)`` in float32,
  regardless of the algorithm that models its *timing*.  Ring vs tree vs
  sequential therefore never changes a single bit of the result — real
  NCCL makes the same promise per (topology, size) and the property tests
  in ``tests/dist/test_collectives.py`` pin it here.
* **Async timing.**  Transfers and receive-side reductions occupy links
  and comm streams without advancing wall time (the host only pays the
  launch overhead per collective); the wall meets the schedule at
  :meth:`Communicator.synchronize`, so collectives issued during backward
  overlap with the remaining backward compute exactly as DDP intends.
  All comm time is attributed to the ``"comm"`` clock phase and comm
  kernels carry ``phase="comm"`` in profiler records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.device import Device, Fabric, LinkSpec, NVLINK, current_device
from repro.device.gpu import kernel_efficiency

#: Phase name comm work is attributed to (``KernelRecord.phase`` of ``nccl:*``).
COMM_PHASE = "comm"


def reduce_fixed_order(arrays: Sequence[np.ndarray], op: str = "sum") -> np.ndarray:
    """The canonical reduction: left-to-right float32 sum over replicas.

    This is *the* definition of a collective's numerics in this model —
    every all-reduce/reduce-scatter algorithm must match it bitwise.
    """
    if not arrays:
        raise ValueError("cannot reduce zero arrays")
    if op not in ("sum", "mean"):
        raise ValueError(f"unknown reduction op {op!r}")
    acc = np.asarray(arrays[0], dtype=np.float32).copy()
    for arr in arrays[1:]:
        if arr.shape != acc.shape:
            raise ValueError(
                f"replica buffers disagree on shape: {arr.shape} vs {acc.shape}"
            )
        acc += np.asarray(arr, dtype=np.float32)
    if op == "mean":
        acc /= np.float32(len(arrays))
    return acc


@dataclass
class CommStats:
    """Aggregate counters across all collectives issued on a communicator."""

    collectives: int = 0
    bytes_moved: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.collectives += 1
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1


class Communicator:
    """NCCL-style collectives for ``world_size`` replicas on one device.

    All replicas' comm engines are modelled as streams of the *measured*
    device (``replica{r}/comm``) so one clock carries the whole schedule;
    replica compute itself may run elsewhere (see
    :class:`~repro.dist.DistributedDataParallel`).  With ``world_size=1``
    the communicator is a strict no-op: no streams or links are created
    and every collective returns its input unchanged — the basis of the
    DDP single-replica bitwise-parity guarantee.
    """

    def __init__(
        self,
        world_size: int,
        device: Optional[Device] = None,
        link: LinkSpec = NVLINK,
        record_transfers: bool = False,
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.device = device or current_device()
        self.stats = CommStats()
        if world_size > 1:
            self.fabric = Fabric(world_size, spec=link, record=record_transfers)
            self.streams = [self.device.stream(f"replica{r}/comm")
                            for r in range(world_size)]
        else:
            self.fabric = None
            self.streams = []

    # ------------------------------------------------------------------
    # schedule helpers (timing only — numerics never pass through these)
    # ------------------------------------------------------------------
    def _begin(self, kind: str, nbytes: int) -> None:
        """Host-side cost of issuing one collective (the NCCL launch)."""
        self.stats.count(kind)
        self.stats.bytes_moved += int(nbytes)
        with self.device.clock.phase(COMM_PHASE):
            self.device.host(self.device.spec.launch_overhead)

    def _reduce_seconds(self, nbytes: float) -> float:
        """GPU time for the receive-side elementwise reduce of ``nbytes``."""
        elems = nbytes / 4.0
        return self.device.spec.kernel_time(
            flops=elems, bytes_moved=3.0 * nbytes,
            efficiency=kernel_efficiency("grad_accumulate"),
        )

    def _record(self, kind: str, started: List[float], nbytes: int) -> None:
        """One profiler record per replica spanning its comm activity."""
        if not self.device.profiler.enabled:
            return
        for rank, stream in enumerate(self.streams):
            if stream.ready <= started[rank]:
                continue  # this rank did nothing (e.g. broadcast leaf round)
            self.device.record_kernel(
                f"nccl:{kind}", stream.ready - started[rank], 0.0, float(nbytes),
                phase=COMM_PHASE, stream=stream,
            )

    def _stream_marks(self) -> List[float]:
        return [max(s.ready, self.device.clock.elapsed) for s in self.streams]

    # ------------------------------------------------------------------
    # algorithm selection
    # ------------------------------------------------------------------
    def estimate_ring_seconds(self, nbytes: int) -> float:
        """Analytic ring all-reduce time: bandwidth-optimal, 2(N-1) hops."""
        n, spec = self.world_size, self.fabric.spec
        steps = 2 * (n - 1)
        return steps * spec.transfer_time(nbytes / n)

    def estimate_tree_seconds(self, nbytes: int) -> float:
        """Analytic tree all-reduce time: latency-optimal, 2·log2(N) rounds."""
        rounds = 2 * math.ceil(math.log2(self.world_size))
        return rounds * self.fabric.spec.transfer_time(nbytes)

    def _pick_algorithm(self, algorithm: str, nbytes: int) -> str:
        if algorithm != "auto":
            if algorithm not in ("ring", "tree"):
                raise ValueError(f"unknown all-reduce algorithm {algorithm!r}")
            return algorithm
        if self.estimate_tree_seconds(nbytes) < self.estimate_ring_seconds(nbytes):
            return "tree"
        return "ring"

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def all_reduce(
        self,
        arrays: Sequence[np.ndarray],
        op: str = "sum",
        algorithm: str = "auto",
        label: str = "all_reduce",
    ) -> np.ndarray:
        """Reduce one buffer per replica; every replica ends with the result.

        Returns the reduced array (identical on all ranks by construction).
        ``algorithm`` chooses the *timing* schedule only: ``"ring"`` is
        bandwidth-optimal, ``"tree"`` latency-optimal, ``"auto"`` picks the
        analytically cheaper of the two for this buffer size.
        """
        self._check_world(arrays)
        result = reduce_fixed_order(arrays, op=op)
        if self.world_size == 1:
            return result
        nbytes = int(result.nbytes)
        algo = self._pick_algorithm(algorithm, nbytes)
        self._begin(f"{algo}_all_reduce", nbytes)
        started = self._stream_marks()
        if algo == "ring":
            self._ring_all_reduce_schedule(nbytes, label)
        else:
            self._tree_reduce_schedule(nbytes, label)
            self._tree_broadcast_schedule(nbytes, label)
        self._record(f"{algo}_all_reduce", started, nbytes)
        return result

    def broadcast(self, array: np.ndarray, root: int = 0,
                  label: str = "broadcast") -> np.ndarray:
        """Send ``root``'s buffer to every replica (binomial tree rounds)."""
        if not 0 <= root < self.world_size:
            raise ValueError(f"root={root} outside world_size={self.world_size}")
        array = np.asarray(array, dtype=np.float32)
        if self.world_size == 1:
            return array
        nbytes = int(array.nbytes)
        self._begin("tree_broadcast", nbytes)
        started = self._stream_marks()
        self._tree_broadcast_schedule(nbytes, label, root=root)
        self._record("tree_broadcast", started, nbytes)
        return array

    # ------------------------------------------------------------------
    # timing schedules
    # ------------------------------------------------------------------
    def _hop_snapshot(self, src: int, dst: int, nbytes: float,
                      reduce_after: bool, label: str,
                      sender_ready: float) -> None:
        """Like :meth:`_hop`, but against a snapshotted sender readiness.

        Ring steps are simultaneous across ranks: every rank's send at step
        ``s`` depends on its state after step ``s-1``, not on sends other
        ranks already issued *within* step ``s`` (the loop over ranks is a
        serialisation artefact of the simulation, not of the schedule).
        """
        start, end = self.fabric.transfer(src, dst, int(nbytes),
                                          sender_ready, label=label)
        seconds = (end - start) + (self._reduce_seconds(nbytes)
                                   if reduce_after else 0.0)
        self.streams[dst].enqueue(seconds, after=start)
        if reduce_after and dst == 0:
            self.device.clock.account_gpu_async(self._reduce_seconds(nbytes))

    def _ring_reduce_scatter_schedule(self, chunk_bytes: List[int],
                                      label: str) -> None:
        n = self.world_size
        for step in range(n - 1):
            marks = self._stream_marks()
            for rank in range(n):
                chunk = (rank - step) % n
                if chunk_bytes[chunk] == 0:
                    continue
                self._hop_snapshot(rank, (rank + 1) % n, chunk_bytes[chunk],
                                   reduce_after=True,
                                   label=f"{label}/chunk{chunk}",
                                   sender_ready=marks[rank])

    def _ring_all_gather_schedule(self, chunk_bytes: List[int],
                                  label: str) -> None:
        n = self.world_size
        for step in range(n - 1):
            marks = self._stream_marks()
            for rank in range(n):
                chunk = (rank + 1 - step) % n
                if chunk_bytes[chunk] == 0:
                    continue
                self._hop_snapshot(rank, (rank + 1) % n, chunk_bytes[chunk],
                                   reduce_after=False,
                                   label=f"{label}/chunk{chunk}",
                                   sender_ready=marks[rank])

    def _ring_all_reduce_schedule(self, nbytes: int, label: str) -> None:
        """Reduce-scatter then all-gather over N chunks (NCCL's ring)."""
        n = self.world_size
        base, extra = divmod(nbytes, n)
        chunk_bytes = [base + (1 if r < extra else 0) for r in range(n)]
        self._ring_reduce_scatter_schedule(chunk_bytes, label)
        self._ring_all_gather_schedule(chunk_bytes, label)

    def _tree_reduce_schedule(self, nbytes: int, label: str) -> None:
        """Binomial-tree reduce to rank 0: log2(N) full-buffer rounds."""
        n, distance = self.world_size, 1
        while distance < n:
            marks = self._stream_marks()
            for rank in range(n):
                if rank % (2 * distance) == distance:
                    self._hop_snapshot(rank, rank - distance, nbytes,
                                       reduce_after=True, label=label,
                                       sender_ready=marks[rank])
            distance *= 2

    def _tree_broadcast_schedule(self, nbytes: int, label: str,
                                 root: int = 0) -> None:
        """Binomial-tree broadcast from ``root`` (relabelled to rank 0)."""
        n = self.world_size
        distance = 1
        while distance < n:
            distance *= 2
        while distance >= 2:
            distance //= 2
            marks = self._stream_marks()
            for rank in range(n):
                if rank % (2 * distance) == 0 and rank + distance < n:
                    src = (rank + root) % n
                    dst = (rank + distance + root) % n
                    self._hop_snapshot(src, dst, nbytes, reduce_after=False,
                                       label=label, sender_ready=marks[src])

    # ------------------------------------------------------------------
    def synchronize(self) -> None:
        """Block the host until every comm stream drains (phase ``comm``).

        The residual wait — whatever the collectives could not hide behind
        compute issued since — lands in ``phase_elapsed["comm"]``; fully
        hidden communication costs zero wall time here.
        """
        if self.world_size == 1:
            return
        target = max(s.ready for s in self.streams)
        gap = target - self.device.clock.elapsed
        if gap > 0:
            with self.device.clock.phase(COMM_PHASE):
                self.device.clock.advance_wait(gap)

    def _check_world(self, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) != self.world_size:
            raise ValueError(
                f"expected one buffer per replica "
                f"({self.world_size}), got {len(arrays)}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Communicator(world_size={self.world_size}, "
                f"collectives={self.stats.collectives})")
