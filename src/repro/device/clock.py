"""Simulated wall clock for the device model.

The clock tracks two quantities:

* ``elapsed`` — total simulated wall time.  Host work and kernel launch
  overhead advance it, and so do kernel durations (the execution model is
  serial: GNN training in both frameworks studied by the paper is effectively
  synchronous, which is exactly why the paper observes low GPU utilisation).
* ``gpu_busy`` — the portion of elapsed time during which the GPU executed a
  kernel.  The paper's Eq. (5) defines GPU utilisation as
  ``gpu_busy / elapsed``; :meth:`SimClock.utilization` implements it.

The clock also attributes elapsed time to a stack of *phases* ("data_loading",
"forward", ...) so trainers can regenerate the execution-time breakdown of
Fig. 1 and Fig. 2 without any extra bookkeeping in model code.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain
from typing import Dict, Iterator, Optional


class SimClock:
    """Accumulates simulated host and GPU time, attributed to phases."""

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self.gpu_busy: float = 0.0
        self.idle: float = 0.0
        self.wait: float = 0.0
        #: Innermost active phase, kept current by :meth:`phase` so every
        #: advance reads it without walking a stack.
        self._phase: Optional[str] = None
        self.phase_elapsed: Dict[str, float] = {}
        self.phase_gpu_busy: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # time advancement
    # ------------------------------------------------------------------
    def advance_host(self, seconds: float) -> None:
        """Advance wall time by host-side work (CPU, no GPU activity)."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds!r}s")
        self.elapsed += seconds
        phase = self._phase
        if phase is not None:
            self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + seconds

    def advance_idle(self, seconds: float) -> None:
        """Advance wall time with *no* work at all (server waiting for load).

        Open-loop serving (``repro.serve``) fast-forwards over quiet periods
        between request arrivals; the time still passes (so throughput and
        utilisation stay honest) but it is tracked separately from host work
        so busy fraction = ``(elapsed - idle) / elapsed`` is recoverable.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds!r}s")
        self.elapsed += seconds
        self.idle += seconds
        phase = self._phase
        if phase is not None:
            self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + seconds

    def advance_gpu(self, seconds: float) -> None:
        """Advance wall time by a kernel execution (GPU busy)."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds!r}s")
        self.elapsed += seconds
        self.gpu_busy += seconds
        phase = self._phase
        if phase is not None:
            self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + seconds
            self.phase_gpu_busy[phase] = self.phase_gpu_busy.get(phase, 0.0) + seconds

    def account_gpu_async(self, seconds: float) -> None:
        """Account a kernel executing on a non-default stream.

        The work is real GPU busy time (Eq. 5's numerator grows) but it does
        *not* advance wall time — the host keeps running and only pays when
        it synchronises with the stream (:meth:`advance_wait`).  This split
        is what lets overlapped execution raise utilisation.
        """
        if seconds < 0:
            raise ValueError(f"cannot account {seconds!r}s of GPU work")
        self.gpu_busy += seconds
        phase = self._phase
        if phase is not None:
            self.phase_gpu_busy[phase] = self.phase_gpu_busy.get(phase, 0.0) + seconds

    def advance_wait(self, seconds: float) -> None:
        """Advance wall time by a host-side synchronisation wait.

        The host blocks until in-flight stream work (a prefetch collation,
        an async kernel) completes.  Tracked separately from host work and
        from idle time: a waiting host is not doing work itself, but the
        machine is — ``busy_fraction`` therefore counts waits as busy.
        """
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by {seconds!r}s")
        self.elapsed += seconds
        self.wait += seconds
        phase = self._phase
        if phase is not None:
            self.phase_elapsed[phase] = self.phase_elapsed.get(phase, 0.0) + seconds

    # ------------------------------------------------------------------
    # phases
    # ------------------------------------------------------------------
    @property
    def current_phase(self) -> Optional[str]:
        """The innermost active phase, or ``None`` outside any phase."""
        return self._phase

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all time advanced inside the block to ``name``."""
        enclosing = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = enclosing

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def utilization(self) -> float:
        """GPU compute utilisation per the paper's Eq. (5), in [0, 1]."""
        if self.elapsed == 0.0:
            return 0.0
        return self.gpu_busy / self.elapsed

    def busy_fraction(self) -> float:
        """Fraction of elapsed time spent doing any work (host or GPU)."""
        if self.elapsed == 0.0:
            return 0.0
        return (self.elapsed - self.idle) / self.elapsed

    def snapshot(self) -> "ClockSnapshot":
        """Capture the current counters for later differencing."""
        return ClockSnapshot(
            elapsed=self.elapsed,
            gpu_busy=self.gpu_busy,
            phase_elapsed=dict(self.phase_elapsed),
        )

    def reset(self) -> None:
        """Zero all counters.  Phase stack must be empty."""
        if self._phase is not None:
            raise RuntimeError("cannot reset the clock inside an active phase")
        self.elapsed = 0.0
        self.gpu_busy = 0.0
        self.idle = 0.0
        self.wait = 0.0
        self.phase_elapsed.clear()
        self.phase_gpu_busy.clear()


class ClockSnapshot:
    """Immutable capture of a :class:`SimClock`, supporting differencing."""

    def __init__(self, elapsed: float, gpu_busy: float, phase_elapsed: Dict[str, float]):
        self.elapsed = elapsed
        self.gpu_busy = gpu_busy
        self.phase_elapsed = phase_elapsed

    def delta(self, clock: SimClock) -> "ClockSnapshot":
        """Return counters accumulated on ``clock`` since this snapshot."""
        phases = {
            name: clock.phase_elapsed.get(name, 0.0) - self.phase_elapsed.get(name, 0.0)
            for name in dict.fromkeys(chain(self.phase_elapsed, clock.phase_elapsed))
        }
        return ClockSnapshot(
            elapsed=clock.elapsed - self.elapsed,
            gpu_busy=clock.gpu_busy - self.gpu_busy,
            phase_elapsed=phases,
        )
