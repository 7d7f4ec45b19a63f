"""One serving replica of the fleet.

A replica is a :class:`~repro.serve.InferenceModel` behind its own local
:class:`~repro.serve.RequestQueue` (one lane per SLA tier, drained
highest-priority-first), executing forwards on a dedicated
device stream (``replica<i>``) of the *shared* simulated device — the
same per-replica-stream construction ``repro.dist`` uses for DDP, applied
to serving.  Kernel durations land on the replica's stream timeline and
collation, launch overhead, fault stalls and retry backoff on its host
stream (both parallel across replicas); only routing and admission stay
on the shared frontend clock, and completions are read off stream events.

Replicas are also the unit of elasticity and chaos: a scaled-up replica
*warms* first (checkpoint weights crossing PCIe, charged via the device
cost model), and a lost replica goes *down*, its backlog re-routed and its
in-flight batch retried or failed — never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.device import Device
from repro.fleet.request import SLA_TIERS, FleetRequest
from repro.serve.queue import RequestQueue
from repro.serve.registry import InferenceModel
from repro.serve.resilience import CircuitBreaker

UP = "up"
WARMING = "warming"
DOWN = "down"


@dataclass
class PendingBatch:
    """One dispatched batch awaiting its stream completion event.

    ``completions`` pairs each request with its prediction and per-request
    completion timestamp (fleet-relative); OOM splitting can give the two
    halves different completion times within one dispatch.
    """

    dispatch_time: float
    #: ``(request, prediction, completion_time)`` per request.
    completions: List[Tuple[FleetRequest, int, float]] = field(default_factory=list)

    @property
    def done_at(self) -> float:
        """When the whole batch has retired (the last sub-completion)."""
        return max((c[2] for c in self.completions), default=self.dispatch_time)

    @property
    def requests(self) -> List[FleetRequest]:
        return [c[0] for c in self.completions]


class Replica:
    """A single fleet member: model + local queue + stream + breaker."""

    def __init__(
        self,
        replica_id: int,
        inference: InferenceModel,
        device: Device,
        queue_capacity: int = 64,
        breaker: Optional[CircuitBreaker] = None,
        state: str = UP,
        ready_at: float = 0.0,
    ) -> None:
        self.id = replica_id
        self.inference = inference
        self.device = device
        self.stream = device.stream(f"replica{replica_id}")
        #: The replica's own host timeline: each fleet member is its own
        #: machine, so its collation + launch work runs here (via
        #: :meth:`Device.offload`) and overlaps with every other replica —
        #: only routing/admission serialise on the shared frontend clock.
        self.host_stream = device.stream(f"replica{replica_id}.host")
        self.queue = RequestQueue(queue_capacity, lanes=len(SLA_TIERS))
        self.breaker = breaker or CircuitBreaker()
        self.state = state
        #: Fleet-relative time a warming replica comes up.
        self.ready_at = ready_at
        self.inflight: Optional[PendingBatch] = None
        #: Batches this replica served to completion.
        self.batches_served = 0
        #: Requests this replica answered.
        self.requests_served = 0
        #: Times this replica was killed by chaos.
        self.losses = 0

    # ------------------------------------------------------------------
    @property
    def is_up(self) -> bool:
        return self.state == UP

    @property
    def backlog(self) -> int:
        """Routing load signal: queued requests plus the in-flight batch."""
        inflight = len(self.inflight.completions) if self.inflight is not None else 0
        return len(self.queue) + inflight

    @property
    def free(self) -> bool:
        """Whether a new batch may be dispatched right now."""
        return self.is_up and self.inflight is None

    # ------------------------------------------------------------------
    def warm_start_seconds(self, boot_overhead: float = 2e-3) -> float:
        """Cost of bringing this replica up, via the device cost model.

        A warm start ships the model's weights across PCIe (one fp32 word
        per parameter, timed by :meth:`GPUSpec.transfer_time`) plus a
        fixed host-side boot overhead (process spawn, allocator warmup).
        """
        weight_bytes = 4.0 * self.inference.model.num_parameters()
        return self.device.spec.transfer_time(weight_bytes) + boot_overhead

    def begin_warmup(self, now: float, boot_overhead: float = 2e-3) -> float:
        """Mark the replica warming; returns its ready time (fleet-relative).

        The weight transfer is recorded on the replica's stream as a
        ``replica_warmup`` profiler record, so scale-ups are visible on
        the replica's Chrome-trace track like any other work.
        """
        warm = self.warm_start_seconds(boot_overhead)
        self.state = WARMING
        self.ready_at = now + warm
        weight_bytes = 4.0 * self.inference.model.num_parameters()
        self.stream.enqueue(warm)
        self.device.record_kernel(
            "replica_warmup", warm, 0.0, weight_bytes,
            scope=("fleet", f"replica{self.id}"), phase="warmup", stream=self.stream,
        )
        return self.ready_at

    def come_up(self) -> None:
        self.state = UP
        self.ready_at = 0.0

    def go_down(self, now_abs: float) -> List[FleetRequest]:
        """Kill the replica at absolute clock time ``now_abs``.

        Returns the drained backlog for the caller to re-route.  Any
        enqueued-but-unfinished stream work stops where the crash caught
        it (``stream.ready`` is pulled back), so a recovered replica does
        not inherit phantom busy time from work that never completed.
        """
        self.state = DOWN
        self.losses += 1
        self.stream.ready = min(self.stream.ready, now_abs)
        self.host_stream.ready = min(self.host_stream.ready, now_abs)
        return self.queue.drain()


__all__ = ["Replica", "PendingBatch", "UP", "WARMING", "DOWN"]
