"""Compiled execution plans and their replay through the simulated device.

A plan is the lowered form of a captured-and-optimised step: one
:class:`PlanNode` per kernel of the original eager stream, each telling the
device what the compiled artifact would do when that kernel comes up again
— launch it as-is, skip it, or absorb it into a fused launch.

Replay mirrors CUDA-graph replay: the step's Python re-executes (so the
numerics are eager-exact by construction) while the device routes every
``launch`` call through a :class:`ReplaySession`.  The session verifies
that the incoming kernel stream still matches the plan — a *guard*, like
torch.compile's — and decides what the fused schedule launches instead of
the eager one; the device charges it by its one kernel rule.  On any
divergence it fails open: the rest of the step is charged eagerly and the
caller recaptures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.compile.ir import GraphIR, PassStats
from repro.compile.passes import (
    ACTION_EAGER,
    ACTION_FUSE_HEAD,
    ACTION_FUSE_MEMBER,
    ACTION_SKIP,
    NodeDecision,
)

#: Cap on how many member names appear in a fused kernel's display name.
_NAME_MEMBERS = 4


@dataclass(frozen=True)
class PlanNode:
    """Replay directive for one position of the eager kernel stream."""

    name: str
    action: str
    group: Optional[int] = None
    byte_scale: float = 1.0
    closes_group: bool = False
    group_name: Optional[str] = None


@dataclass
class ExecutionPlan:
    """The compiled schedule for one captured step."""

    nodes: List[PlanNode]
    stats: PassStats
    #: Launches the eager stream issues per step.
    eager_launches: int = 0
    #: Launches the compiled schedule issues per step.
    compiled_launches: int = 0

    @property
    def launch_reduction(self) -> float:
        """Fraction of eager kernel launches the plan eliminates."""
        if self.eager_launches == 0:
            return 0.0
        return 1.0 - self.compiled_launches / self.eager_launches

    def __repr__(self) -> str:
        return (
            f"ExecutionPlan({self.eager_launches} -> {self.compiled_launches} "
            f"launches, {self.launch_reduction:.0%} fewer; {self.stats.summary()})"
        )


def build_plan(ir: GraphIR, decisions: Sequence[NodeDecision], stats: PassStats) -> ExecutionPlan:
    """Lower per-node pass decisions into a replayable plan."""
    if len(decisions) != len(ir.nodes):
        raise ValueError("one decision per IR node required")
    # Find the last member of each fused group so replay knows when to emit
    # the fused kernel record.
    last_of_group = {}
    members_of_group = {}
    for node, decision in zip(ir.nodes, decisions):
        if decision.group is not None:
            last_of_group[decision.group] = node.index
            members_of_group.setdefault(decision.group, []).append(node.name)

    plan_nodes: List[PlanNode] = []
    compiled = 0
    for node, decision in zip(ir.nodes, decisions):
        closes = decision.group is not None and last_of_group[decision.group] == node.index
        group_name = None
        if closes:
            names = members_of_group[decision.group]
            shown = "+".join(names[:_NAME_MEMBERS])
            if len(names) > _NAME_MEMBERS:
                shown += f"+{len(names) - _NAME_MEMBERS}more"
            group_name = f"fused[{shown}]"
        plan_nodes.append(
            PlanNode(
                name=node.name,
                action=decision.action,
                group=decision.group,
                byte_scale=decision.byte_scale,
                closes_group=closes,
                group_name=group_name,
            )
        )
        if decision.action in (ACTION_EAGER, ACTION_FUSE_HEAD):
            compiled += 1
    return ExecutionPlan(
        nodes=plan_nodes,
        stats=stats,
        eager_launches=len(ir.nodes),
        compiled_launches=compiled,
    )


class GuardFailure:
    """Why a replay diverged from its plan (kept for diagnostics)."""

    def __init__(self, position: int, expected: Optional[str], got: Optional[str]):
        self.position = position
        self.expected = expected
        self.got = got

    def __repr__(self) -> str:
        return (
            f"GuardFailure(position={self.position}, expected={self.expected!r}, "
            f"got={self.got!r})"
        )


@dataclass
class _OpenGroup:
    """A fused kernel being accumulated across member launches."""

    group: int
    name: str = "fused"
    scope: Tuple[str, ...] = ()
    duration: float = 0.0
    flops: float = 0.0
    bytes_moved: float = 0.0
    #: Stream the fused kernel executes on: its head's (``None`` = serial).
    stream: object = None


class ReplaySession:
    """Streams one step's kernel launches through an :class:`ExecutionPlan`.

    Install on a device with ``device.replaying(session)``; every
    ``Device.launch`` inside the block routes here.  The session is
    single-use: one step, then :meth:`finish`.
    """

    def __init__(self, plan: ExecutionPlan) -> None:
        self.plan = plan
        self.position = 0
        self.failure: Optional[GuardFailure] = None
        self.launches_issued = 0
        self.launches_skipped = 0
        self._open: Optional[_OpenGroup] = None
        self._finished = False

    @property
    def failed(self) -> bool:
        return self.failure is not None

    # ------------------------------------------------------------------
    def on_launch(
        self, device, name: str, flops: float, bytes_moved: float, stream, charge
    ) -> Optional[float]:
        """Account one incoming kernel launch against the plan.

        ``stream`` is the (already resolved) target stream from
        :meth:`~repro.device.Device.launch` — ``None`` means the default
        stream's serial semantics — and ``charge(name, flops, bytes_moved,
        stream, issued)`` is the device's own kernel charge.  Returns the
        duration charged, or ``None`` to hand the launch back to the device
        to run eagerly: the plan says so, the guard failed, or a member
        arrived without its head.  A fused head pays one launch overhead,
        its members none, and members run on their head's stream so a
        compiled step launched inside a ``device.on(stream)`` block
        overlaps exactly like its eager twin.
        """
        node = self._match(device, name)
        if node is not None and node.action == ACTION_SKIP:
            self.launches_skipped += 1
            return 0.0
        group = self._open
        member = (
            node is not None
            and node.action == ACTION_FUSE_MEMBER
            and group is not None
            and group.group == node.group
        )
        if not member:
            self.launches_issued += 1
            if node is None or node.action != ACTION_FUSE_HEAD:
                return None
            group = self._open = _OpenGroup(
                group=node.group, scope=device.current_scope, stream=stream
            )
        scaled_bytes = bytes_moved * node.byte_scale
        duration = charge(name, flops, scaled_bytes, group.stream, not member)
        group.duration += duration
        group.flops += flops
        group.bytes_moved += scaled_bytes
        if node.closes_group:
            group.name = node.group_name or "fused"
            self._emit_group(device)
        return duration

    def _match(self, device, name: str) -> Optional[PlanNode]:
        """The plan node ``name`` matches, or ``None`` once the guard failed."""
        if self.failed:
            return None
        nodes = self.plan.nodes
        node = nodes[self.position] if self.position < len(nodes) else None
        if node is None or node.name != name:
            self._fail(device, expected=None if node is None else node.name, got=name)
            return None
        self.position += 1
        return node

    # ------------------------------------------------------------------
    def finish(self, device) -> None:
        """Close the session; flags a guard failure on an incomplete stream."""
        if self._finished:
            return
        self._finished = True
        self._emit_group(device)
        if not self.failed and self.position != len(self.plan.nodes):
            self.failure = GuardFailure(
                position=self.position,
                expected=self.plan.nodes[self.position].name,
                got=None,
            )

    def _fail(self, device, expected: Optional[str], got: Optional[str]) -> None:
        self.failure = GuardFailure(self.position, expected, got)
        self._emit_group(device)

    def _emit_group(self, device) -> None:
        """Record the accumulated fused kernel, if one is open."""
        group = self._open
        if group is None:
            return
        self._open = None
        device.record_kernel(
            group.name, group.duration, group.flops, group.bytes_moved,
            scope=group.scope, stream=group.stream,
        )
