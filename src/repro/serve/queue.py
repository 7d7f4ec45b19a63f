"""Bounded request queue and admission control.

The north-star deployment serves heavy open-loop traffic, where an
unbounded queue converts overload into unbounded latency.  The serving
layer instead bounds the queue and sheds load at the door with a typed
:class:`~repro.serve.request.Overloaded` rejection — the standard
admission-control posture for latency-sensitive inference services.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.serve.request import InferenceRequest, Overloaded


class RequestQueue:
    """Bounded queue of pending requests: one FIFO lane per priority.

    ``lanes=1`` is the single server's plain FIFO; a fleet replica has one
    lane per SLA tier, drained lowest ``request.priority`` first (priority
    decides *order*, the batcher's node/edge budget decides *size*, so a
    batch may mix tiers).  The capacity is shared across lanes.
    """

    def __init__(self, capacity: int, lanes: int = 1) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        if lanes <= 0:
            raise ValueError("a queue needs at least one lane")
        self.capacity = capacity
        self._lanes: List[Deque[InferenceRequest]] = [deque() for _ in range(lanes)]
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[InferenceRequest]:
        for lane in self._lanes:
            yield from lane

    @property
    def full(self) -> bool:
        return self._size >= self.capacity

    def push(self, request: InferenceRequest) -> None:
        if self.full:
            raise Overloaded(f"queue full at depth {self._size}", queue_depth=self._size)
        self._lanes[request.priority].append(request)
        self._size += 1

    def peek(self) -> Optional[InferenceRequest]:
        for lane in self._lanes:
            if lane:
                return lane[0]
        return None

    def pop(self) -> InferenceRequest:
        for lane in self._lanes:
            if lane:
                self._size -= 1
                return lane.popleft()
        raise IndexError("pop from an empty request queue")

    def drain(self) -> List[InferenceRequest]:
        """Remove and return everything queued, priority-then-FIFO order.

        Used when a replica is lost or scaled away: its backlog gets
        re-routed, never dropped.
        """
        out = list(self)
        for lane in self._lanes:
            lane.clear()
        self._size = 0
        return out

class AdmissionController:
    """Decides, per request, between enqueueing and shedding.

    Two shedding points:

    * **at admission** — the bounded queue is full: raise
      :class:`Overloaded` (``reason='queue_full'``) back to the client;
    * **at dispatch** — the request's deadline passed while it queued
      (``request.expired(now)``): :meth:`DynamicBatcher.next_batch` drops
      it (``reason='deadline'``) rather than spend service capacity on an
      answer nobody is waiting for.
    """

    def __init__(self, queue: RequestQueue, default_deadline: Optional[float] = None) -> None:
        if default_deadline is not None and default_deadline <= 0:
            raise ValueError("default_deadline must be positive when set")
        self.queue = queue
        self.default_deadline = default_deadline

    def admit(self, request: InferenceRequest, now: float) -> None:
        """Enqueue ``request`` or raise :class:`Overloaded`."""
        if request.deadline is None:
            request.deadline = self.default_deadline
        if request.expired(now):
            raise Overloaded(
                f"request {request.request_id} already past its deadline on arrival",
                queue_depth=len(self.queue),
                reason="deadline",
            )
        self.queue.push(request)
