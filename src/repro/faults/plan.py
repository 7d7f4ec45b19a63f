"""Seeded, deterministic fault schedules and their injection machinery.

A :class:`FaultPlan` describes *how often* each fault kind fires; a
:class:`FaultInjector` (one per run, created by :meth:`FaultPlan.start`)
turns the plan into per-event decisions.  Decisions are drawn from
dedicated seeded RNG streams — one for kernel launches, one for
allocations — so a run with the same plan, same seed and same workload
injects byte-for-byte the same faults.  That determinism is what makes
resilience testable: two invocations of a faulted serving trace produce
identical metrics, and a faulted-then-resumed training run can be checked
bitwise against its fault-free twin.

Fault kinds:

* ``oom`` — :class:`~repro.device.memory.OutOfMemoryError` raised from
  :meth:`MemoryPool.alloc`, as if the allocation overflowed capacity;
* ``kernel`` — :class:`KernelFault` raised from :meth:`Device.launch`
  after the host already paid the launch overhead (a failed launch still
  costs dispatch time);
* ``stall`` — a host hiccup: :meth:`Device.launch` charges extra host
  seconds before dispatching (GC pause, driver contention), no error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.faults.errors import KernelFault


def _rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
    return float(value)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded schedule of fault probabilities per injection point.

    Rates are per-event Bernoulli probabilities: ``kernel_fault_rate`` is
    evaluated once per :meth:`Device.launch`, ``oom_rate`` once per
    :meth:`MemoryPool.alloc`.
    """

    seed: int = 0
    oom_rate: float = 0.0
    kernel_fault_rate: float = 0.0
    stall_rate: float = 0.0
    #: Host seconds charged per injected stall.
    stall_seconds: float = 1e-4

    def __post_init__(self) -> None:
        _rate("oom_rate", self.oom_rate)
        _rate("kernel_fault_rate", self.kernel_fault_rate)
        _rate("stall_rate", self.stall_rate)
        if self.stall_seconds < 0:
            raise ValueError("stall_seconds must be non-negative")

    def start(self) -> "FaultInjector":
        """Create a fresh injector with this plan's seeded decision streams."""
        return FaultInjector(self)


@dataclass
class FaultStats:
    """What an injector actually did, for metrics and assertions."""

    launches_seen: int = 0
    allocs_seen: int = 0
    ooms_injected: int = 0
    kernel_faults_injected: int = 0
    stalls_injected: int = 0
    stall_seconds_total: float = 0.0


class FaultInjector:
    """Per-run decision engine hooked into ``Device`` and ``MemoryPool``.

    Install with :meth:`Device.injecting`; the device consults
    :meth:`on_launch` at the top of every kernel launch and the memory
    pool consults :meth:`on_alloc` before reserving bytes.  Launch and
    allocation decisions come from independent RNG streams, so the fault
    schedule of one hook does not shift when the other sees a different
    number of events.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()
        seeds = np.random.SeedSequence(plan.seed).spawn(2)
        self._launch_rng = np.random.default_rng(seeds[0])
        self._alloc_rng = np.random.default_rng(seeds[1])

    # ------------------------------------------------------------------
    def on_launch(self, name: str) -> Tuple[float, Optional[KernelFault]]:
        """Decide one launch: ``(stall seconds, failure or None)``.

        Consulted at the top of :meth:`Device.launch`, which charges the
        stall and the failed dispatch's (wasted) launch overhead, then
        raises the failure.
        """
        plan = self.plan
        self.stats.launches_seen += 1
        stall = 0.0
        if plan.stall_rate and self._launch_rng.random() < plan.stall_rate:
            self.stats.stalls_injected += 1
            self.stats.stall_seconds_total += plan.stall_seconds
            stall = plan.stall_seconds
        if plan.kernel_fault_rate and self._launch_rng.random() < plan.kernel_fault_rate:
            self.stats.kernel_faults_injected += 1
            return stall, KernelFault(name, self.stats.launches_seen - 1)
        return stall, None

    def on_alloc(self, pool, nbytes: int) -> None:
        """Consulted by :meth:`MemoryPool.alloc`; may raise an injected OOM."""
        from repro.device.memory import OutOfMemoryError

        plan = self.plan
        self.stats.allocs_seen += 1
        if plan.oom_rate and self._alloc_rng.random() < plan.oom_rate:
            self.stats.ooms_injected += 1
            raise OutOfMemoryError(
                f"injected device out of memory: requested {nbytes} bytes "
                f"with {pool.current} in use of {pool.capacity} capacity "
                f"({pool.capacity - pool.current} free)"
            )
