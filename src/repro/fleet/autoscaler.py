"""Queue-depth-driven replica autoscaling.

The control loop the ROADMAP's production fleet needs: every ``interval``
simulated seconds the autoscaler looks at the mean queued requests per up
replica and scales one replica at a time.  Scale-ups are *not free*: the
new replica warms first (weights over PCIe via the device cost model) and
only joins the routable set when warm — exactly the lag that makes flash
crowds hard.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True)
class AutoscalerConfig:
    """Thresholds and pacing of the scaling control loop."""

    min_replicas: int = 1
    max_replicas: int = 8
    #: Seconds between control-loop evaluations.
    interval: float = 0.02
    #: Scale up when mean queued requests per up replica exceeds this.
    scale_up_queue_depth: float = 12.0
    #: Scale down when mean queue depth per up replica falls below this.
    scale_down_queue_depth: float = 1.0
    #: Minimum seconds between two scaling actions (either direction).
    cooldown: float = 0.05
    #: Fixed host-side boot cost added to the weight-transfer warm time.
    boot_overhead: float = 2e-3

    def __post_init__(self) -> None:
        if self.min_replicas <= 0:
            raise ValueError("min_replicas must be positive")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")


class Autoscaler:
    """Evaluates the config's thresholds against live fleet signals."""

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self.next_eval = config.interval
        self._last_action = -float("inf")
        self.scale_ups = 0
        self.scale_downs = 0

    # ------------------------------------------------------------------
    def decide(self, now: float, replicas: Sequence) -> int:
        """Return +1 (scale up), -1 (scale down) or 0 (hold) at ``now``.

        ``replicas`` is the full fleet roster; warming replicas count
        toward the population cap (capacity already paid for) but not
        toward the load average (they serve nothing yet).
        """
        config = self.config
        self.next_eval = now + config.interval
        if now - self._last_action < config.cooldown:
            return 0
        up = [r for r in replicas if r.is_up]
        alive = [r for r in replicas if r.state != "down"]
        if not up:
            # Nothing serving (everything warming or lost): add capacity if
            # the population cap allows, through the same bookkeeping.
            if len(alive) < config.max_replicas:
                self._last_action = now
                self.scale_ups += 1
                return +1
            return 0
        depth = sum(len(r.queue) for r in up) / len(up)
        if depth > config.scale_up_queue_depth and len(alive) < config.max_replicas:
            self._last_action = now
            self.scale_ups += 1
            return +1
        if depth < config.scale_down_queue_depth and len(up) > config.min_replicas:
            # Only shrink when some up replica is actually idle.
            if any(r.free and len(r.queue) == 0 for r in up):
                self._last_action = now
                self.scale_downs += 1
                return -1
        return 0

    def pick_scale_down(self, replicas: Sequence) -> Optional[object]:
        """The idle up replica to retire (highest id — LIFO elasticity)."""
        idle = [r for r in replicas if r.is_up and r.free and len(r.queue) == 0]
        return max(idle, key=lambda r: r.id) if idle else None


__all__ = ["Autoscaler", "AutoscalerConfig"]
