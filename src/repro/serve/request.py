"""Request/response types and the serving layer's typed rejection.

A serving request carries one :class:`~repro.graph.graph.GraphSample` plus
its open-loop arrival time (simulated seconds).  Responses record the full
latency decomposition a production dashboard would: queueing delay until
dispatch, then batched service time, against the same simulated clock the
training benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph import GraphSample


@dataclass
class InferenceRequest:
    """One graph-classification query in flight."""

    request_id: int
    sample: GraphSample
    #: Simulated time the request arrived at the server.
    arrival_time: float
    #: Seconds after arrival by which the reply is useful; ``None`` = never
    #: expires.  Expired requests are shed at dispatch, not served late.
    deadline: Optional[float] = None

    @property
    def num_nodes(self) -> int:
        return self.sample.num_nodes

    @property
    def num_edges(self) -> int:
        return self.sample.num_edges

    @property
    def priority(self) -> int:
        """Queue lane, lower dispatches first; the single server has one."""
        return 0

    def expired(self, now: float) -> bool:
        """Whether the request's deadline has passed at simulated ``now``."""
        return self.deadline is not None and now - self.arrival_time > self.deadline


@dataclass
class InferenceResponse:
    """A served request: prediction plus its latency decomposition."""

    request_id: int
    prediction: int
    arrival_time: float
    dispatch_time: float
    completion_time: float
    batch_size: int

    @property
    def latency(self) -> float:
        """End-to-end latency: arrival to batch completion."""
        return self.completion_time - self.arrival_time

    @property
    def queue_delay(self) -> float:
        """Time spent waiting in the queue before dispatch."""
        return self.dispatch_time - self.arrival_time


class Overloaded(RuntimeError):
    """Typed load-shedding rejection raised by admission control.

    Carries enough context (queue depth, reason) for a client to implement
    backoff; the simulator counts these per reason instead of letting the
    queue grow without bound.
    """

    def __init__(self, message: str, queue_depth: int, reason: str = "queue_full") -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.reason = reason
