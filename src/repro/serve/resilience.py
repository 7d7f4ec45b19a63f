"""Graceful degradation primitives for the serving loop.

Under fault injection (``repro.faults``) — or any real transient failure —
the serving layer must degrade, not collapse: transient kernel faults are
retried with exponential backoff, repeated model failures trip a circuit
breaker that fails fast instead of burning service capacity, and
out-of-memory batches are split in half and retried rather than dropped.
These pieces are deliberately tiny state machines over the *simulated*
clock, so their behaviour is deterministic and unit-testable;
:func:`serve_with_recovery` composes them into the one dispatch-time
recovery path both :class:`~repro.serve.ServeSimulator` and
:class:`~repro.fleet.FleetSimulator` run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.device import OutOfMemoryError
from repro.faults.errors import KernelFault
from repro.serve.batcher import DynamicBatcher


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for transient (retryable) model failures."""

    #: Retries after the initial attempt; 0 disables retrying.
    max_retries: int = 3
    #: Simulated seconds of backoff before the first retry.
    backoff: float = 1e-3
    #: Backoff growth per successive retry.
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return self.backoff * self.multiplier**attempt


class CircuitBreaker:
    """Trips open after repeated consecutive model failures.

    Classic three-state breaker over the simulated clock: ``closed``
    (normal service) -> ``open`` after ``failure_threshold`` consecutive
    batch failures (requests shed immediately, no service attempted) ->
    ``half_open`` once ``cooldown`` simulated seconds pass (one probe
    batch allowed; success closes the breaker, failure re-opens it).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5, cooldown: float = 0.25) -> None:
        if failure_threshold <= 0:
            raise ValueError("failure_threshold must be positive")
        if cooldown <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.consecutive_failures = 0
        self.opened_at: float = 0.0
        #: Times the breaker has tripped open over its lifetime.
        self.opens = 0

    # ------------------------------------------------------------------
    def allow(self, now: float) -> bool:
        """Whether a batch may be dispatched at simulated ``now``."""
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cooldown:
                self.state = self.HALF_OPEN
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if self.state == self.HALF_OPEN or self.consecutive_failures >= self.failure_threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.opens += 1
            self.consecutive_failures = 0

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.state}, failures={self.consecutive_failures}/"
            f"{self.failure_threshold}, opens={self.opens})"
        )


def serve_with_recovery(
    batch: List,
    run: Callable[[List], None],
    backoff: Callable[[float], None],
    fail: Callable[[str, List], None],
    metrics,
    retry_policy: RetryPolicy,
    breaker: CircuitBreaker,
    now: Callable[[], float],
) -> None:
    """Serve one dispatched batch to an explicit outcome per request.

    ``run(batch)`` attempts the batch and records its responses.  A
    transient :class:`~repro.faults.KernelFault` retries it after
    ``backoff(delay)``, with exponentially growing delays, up to
    ``retry_policy.max_retries`` times; an
    :class:`~repro.device.OutOfMemoryError` splits the batch in half and
    serves both halves (recursively), so nothing is dropped for being
    batched too greedily.  Retries exhausted, or a single request that
    still does not fit, is a terminal failure: ``fail(reason, batch)``
    records it and it counts against ``breaker`` at simulated ``now()``.

    The callers differ only in the three callables: the single server
    collates and backs off on the caller's clock, a fleet replica on its
    own host stream.  ``metrics`` counts retries and splits
    (``record_retry`` / ``record_split``).
    """
    attempt = 0
    while True:
        try:
            run(batch)
        except KernelFault:
            if attempt < retry_policy.max_retries:
                metrics.record_retry()
                backoff(retry_policy.delay(attempt))
                attempt += 1
                continue
            reason = "kernel_fault"
        except OutOfMemoryError:
            if len(batch) > 1:
                metrics.record_split()
                for half in DynamicBatcher.split(batch):
                    serve_with_recovery(
                        half, run, backoff, fail, metrics, retry_policy, breaker, now
                    )
                return
            reason = "oom"
        else:
            breaker.record_success()
            return
        fail(reason, batch)
        breaker.record_failure(now())
        return
