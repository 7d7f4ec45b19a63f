"""Compiled execution plans and their replay through the simulated device.

A plan is the lowered form of a captured-and-optimised step: one
:class:`PlanNode` per kernel of the original eager stream, each telling the
device what the compiled artifact would do when that kernel comes up again
— launch it as-is, skip it, or absorb it into a fused launch.

Replay mirrors CUDA-graph replay: the step's Python re-executes (so the
numerics are eager-exact by construction) while the device routes every
``launch`` call through a :class:`ReplaySession`.  The session verifies
that the incoming kernel stream still matches the plan — a *guard*, like
torch.compile's — and accounts clock, profiler and scope time for the
fused schedule instead of the eager one.  On any divergence it fails open:
the rest of the step is charged eagerly and the caller recaptures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.compile.ir import GraphIR, PassStats
from repro.compile.passes import (
    ACTION_EAGER,
    ACTION_FUSE_HEAD,
    ACTION_FUSE_MEMBER,
    ACTION_SKIP,
    NodeDecision,
)
from repro.device.gpu import kernel_efficiency
from repro.device.kernel import KernelRecord

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
    #: Stream the fused kernel executes on (``None`` = default, serial).
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
        self, device, name: str, flops: float, bytes_moved: float, stream=None
    ) -> float:
        """Account one incoming kernel launch against the plan.

        ``stream`` is the (already resolved) target stream from
        :meth:`~repro.device.Device.launch` — ``None`` means the default
        stream's serial semantics.  Fused groups charge their members to
        their head's stream so a compiled step launched inside a
        ``device.on(stream)`` block overlaps exactly like its eager twin.
        """
        if self.failed:
            self.launches_issued += 1
            return device._launch_eager(name, flops, bytes_moved, stream)
        if self.position >= len(self.plan.nodes):
            self._fail(device, expected=None, got=name)
            self.launches_issued += 1
            return device._launch_eager(name, flops, bytes_moved, stream)
        node = self.plan.nodes[self.position]
        if node.name != name:
            self._fail(device, expected=node.name, got=name)
            self.launches_issued += 1
            return device._launch_eager(name, flops, bytes_moved, stream)
        self.position += 1

        if node.action == ACTION_SKIP:
            self.launches_skipped += 1
            return 0.0
        if node.action == ACTION_EAGER:
            self.launches_issued += 1
            return device._launch_eager(name, flops, bytes_moved, stream)

        # Fused head or member.
        spec = device.spec
        if stream is device.default_stream:
            stream = None
        head = node.action == ACTION_FUSE_HEAD
        if head:
            self.launches_issued += 1
            device.clock.advance_host(spec.launch_overhead)
            self._open = _OpenGroup(
                group=node.group, scope=device.current_scope, stream=stream
            )
        elif self._open is None or self._open.group != node.group:
            # Member without its head (should not happen with a well-formed
            # plan, but stay safe): treat as eager.
            self.launches_issued += 1
            return device._launch_eager(name, flops, bytes_moved, stream)
        group = self._open
        scaled_bytes = bytes_moved * node.byte_scale
        duration = spec.kernel_time(flops, scaled_bytes, kernel_efficiency(name))
        if group.stream is None:
            device.clock.advance_gpu(duration)
            device._attribute_scope(duration + (spec.launch_overhead if head else 0.0))
        else:
            group.stream.enqueue(duration)
            device.clock.account_gpu_async(duration)
            if head:
                device._attribute_scope(spec.launch_overhead)
        group.duration += duration
        group.flops += flops
        group.bytes_moved += scaled_bytes
        if node.closes_group:
            group.name = node.group_name or "fused"
            self._emit_group(device)
        return duration

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
        if not device.profiler.enabled:
            return
        if group.stream is None:
            timestamp, stream_id = device.clock.elapsed, 0
        else:
            timestamp, stream_id = group.stream.ready, group.stream.id
        device.profiler.record(
            KernelRecord(
                name=group.name,
                scope=group.scope,
                duration=group.duration,
                flops=group.flops,
                bytes_moved=group.bytes_moved,
                timestamp=timestamp,
                memory=device.memory.current,
                stream=stream_id,
                phase=device.clock.current_phase or "",
            )
        )
