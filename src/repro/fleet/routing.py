"""Pluggable request routing across fleet replicas.

The router assigns each admitted request to one replica's local queue at
arrival time (immediate dispatch, per-replica queues) — the architecture
where routing policy actually matters.  With a single shared queue every
work-conserving policy is equivalent; with local queues, load-blind
round-robin lets queue-length imbalance build up behind slow batches
(service time varies with graph shape), while sampling just *two* queues
and picking the shorter collapses that imbalance almost as well as
scanning all of them — the classic power-of-two-choices result.

Every policy is deterministic: round-robin and least-loaded by
construction, power-of-two-choices from a dedicated seeded RNG stream.
Each decision is appended to :attr:`RoutingPolicy.decisions` so tests can
assert two seeded runs route identically.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

POLICY_NAMES = ("round_robin", "least_loaded", "p2c")


class RoutingPolicy:
    """Base class: pick one replica from the routable set."""

    name = "base"

    def __init__(self) -> None:
        #: ``(request_id, replica_id)`` per routing decision, in order.
        self.decisions: List[Tuple[int, int]] = []

    def select(self, request, replicas: Sequence) -> object:
        """Route ``request`` to one of ``replicas`` (non-empty, routable)."""
        if not replicas:
            raise ValueError("cannot route with no routable replicas")
        choice = self._pick(request, replicas)
        self.decisions.append((request.request_id, choice.id))
        return choice

    def _pick(self, request, replicas: Sequence):
        raise NotImplementedError

    @staticmethod
    def _load(replica) -> Tuple[int, int]:
        """Comparable load: backlog first, replica id as the tie-break."""
        return (replica.backlog, replica.id)


class RoundRobin(RoutingPolicy):
    """Load-blind rotation over the routable replicas."""

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._counter = 0

    def _pick(self, request, replicas: Sequence):
        choice = replicas[self._counter % len(replicas)]
        self._counter += 1
        return choice


class LeastLoaded(RoutingPolicy):
    """Scan every routable replica, pick the smallest backlog."""

    name = "least_loaded"

    def _pick(self, request, replicas: Sequence):
        return min(replicas, key=self._load)


class PowerOfTwoChoices(RoutingPolicy):
    """Sample two distinct replicas (seeded), keep the less loaded.

    With one routable replica the sample degenerates to it.  The RNG is a
    dedicated stream spawned from ``seed``, so routing decisions are a
    pure function of (seed, request sequence, backlog history) — two runs
    of the same trace route byte-for-byte identically.
    """

    name = "p2c"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    def _pick(self, request, replicas: Sequence):
        if len(replicas) == 1:
            return replicas[0]
        first, second = self._rng.choice(len(replicas), size=2, replace=False)
        return min(replicas[int(first)], replicas[int(second)], key=self._load)


def make_policy(name: str, seed: int = 0) -> RoutingPolicy:
    """Build a routing policy by name (``seed`` only feeds ``p2c``)."""
    if name == "round_robin":
        return RoundRobin()
    if name == "least_loaded":
        return LeastLoaded()
    if name == "p2c":
        return PowerOfTwoChoices(seed)
    raise ValueError(f"unknown routing policy {name!r}; options: {POLICY_NAMES}")


def routable(replicas: Sequence, now: float) -> List:
    """Replicas a router may target at ``now``: up, breaker not open.

    The breaker check is non-mutating (state transitions stay at dispatch,
    where :meth:`CircuitBreaker.allow` runs): an open breaker inside its
    cooldown makes the replica invisible to new traffic, while one past
    cooldown is routable again so the half-open probe can happen.
    """
    out = []
    for replica in replicas:
        if not replica.is_up:
            continue
        breaker = replica.breaker
        if breaker.state == breaker.OPEN and now - breaker.opened_at < breaker.cooldown:
            continue
        out.append(replica)
    return out


__all__ = [
    "POLICY_NAMES",
    "RoutingPolicy",
    "RoundRobin",
    "LeastLoaded",
    "PowerOfTwoChoices",
    "make_policy",
    "routable",
]
