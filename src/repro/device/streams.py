"""Streams and events on the simulated clock.

The paper's Section IV-D diagnosis is that GNN training leaves the GPU idle
because CPU work (batching, framework dispatch) is *not* overlapped with
kernel execution.  Real stacks hide that work behind CUDA streams: each
stream is an ordered work queue with its own completion timeline, the host
only blocks when it explicitly synchronises, and events carry ordering
across streams.  This module is the simulated equivalent.

A :class:`Stream` does not execute anything — it is pure *time accounting*.
Work enqueued on a stream starts when (a) the host has issued it, (b) all
previously enqueued work on the stream has finished, and (c) any explicit
``after`` dependency has passed; the stream's :attr:`~Stream.ready`
timestamp is the simulated time at which its queue drains.  The wall clock
(:class:`~repro.device.clock.SimClock`) only advances past ``ready`` when
someone synchronises — that is what makes overlap *real* in the simulation
instead of a projected bound: hidden work never shows up in ``elapsed``,
un-hidden work does, and the critical path emerges from the max/wait
arithmetic rather than from an analytic formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.device.clock import SimClock

#: Stream id of the default (serial) stream.
DEFAULT_STREAM_ID = 0


@dataclass(frozen=True)
class Event:
    """A point on a stream's timeline, CUDA-event style.

    ``timestamp`` is the simulated time at which everything enqueued on the
    recording stream *before* the record call completes.  Events are
    immutable: re-recording returns a fresh event.
    """

    timestamp: float
    #: Id of the stream the event was recorded on (informational).
    stream_id: int = DEFAULT_STREAM_ID

class Stream:
    """An ordered work queue with its own completion timeline.

    Attributes:
        id: Small integer identifying the stream (``0`` is the default
            stream); used as the Chrome-trace track id.
        name: Human-readable label (``"default"``, ``"prefetch"``, ...).
        ready: Simulated timestamp at which all enqueued work completes.
        busy: Total seconds of work executed on this stream so far.
    """

    def __init__(self, stream_id: int, name: str, clock: SimClock) -> None:
        self.id = stream_id
        self.name = name
        self._clock = clock
        self.ready: float = 0.0
        self.busy: float = 0.0

    # ------------------------------------------------------------------
    def enqueue(self, seconds: float, after: Optional[float] = None) -> float:
        """Enqueue ``seconds`` of work; returns its completion timestamp.

        The work starts at ``max(stream.ready, now, after)``: a stream
        executes in issue order, cannot run before the host issued the
        work, and honours an explicit cross-stream dependency timestamp
        (the mechanism behind :meth:`wait_event`).
        """
        if seconds < 0:
            raise ValueError(f"cannot enqueue {seconds!r}s of work")
        start = max(self.ready, self._clock.elapsed, after or 0.0)
        self.ready = start + seconds
        self.busy += seconds
        return self.ready

    # ------------------------------------------------------------------
    def record(self) -> Event:
        """Record an event capturing the stream's current completion time."""
        return Event(timestamp=max(self.ready, self._clock.elapsed), stream_id=self.id)

    def wait_event(self, event: Event) -> None:
        """Make all *subsequently* enqueued work wait for ``event``.

        The CUDA analogue is ``cudaStreamWaitEvent``: it costs the host
        nothing; it only pushes this stream's earliest start time forward.
        """
        self.ready = max(self.ready, event.timestamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Stream(id={self.id}, name={self.name!r}, ready={self.ready:.6f}s, "
            f"busy={self.busy:.6f}s)"
        )
