"""Intermediate representation of one captured training/inference step.

A capture records every simulated kernel launch of a step, in issue order,
as an :class:`IRNode`.  Nodes launched through :func:`repro.tensor.make_op`
additionally carry *dataflow*: the identity of their output tensor and of
their parent tensors, which is what lets the optimization passes reason
about liveness (DCE), structural duplication (CSE) and producer->consumer
adjacency (fusion byte savings).  Kernels launched outside ``make_op`` —
backward kernels, optimizer updates, gradient accumulations — appear as
*opaque* nodes: real launches with costs and scopes but no visible edges,
which the passes treat conservatively (always live, fusable only by
adjacency).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple


@dataclass
class IRNode:
    """One kernel launch of the captured step.

    ``out_id``/``parent_ids`` are capture-local tensor serials, opaque
    ints the tracer never gives two tensors.  ``out_id`` is ``None`` for
    opaque nodes (backward/optimizer kernels launched outside ``make_op``).
    ``out_data`` is the output array of a node outside the autograd graph,
    kept only until the passes have run (:meth:`GraphIR.release_arrays`):
    CSE fingerprints it into ``out_hash`` for the nodes it could eliminate,
    and for no others.
    """

    index: int
    name: str
    scope: Tuple[str, ...]
    flops: float
    bytes_moved: float
    out_id: Optional[int] = None
    out_shape: Optional[Tuple[int, ...]] = None
    out_size: int = 0
    out_hash: Optional[str] = None
    out_data: Optional[Any] = field(default=None, repr=False, compare=False)
    requires_grad: bool = False
    parent_ids: Tuple[int, ...] = ()

    @property
    def has_dataflow(self) -> bool:
        """True when the node carries tensor-level dependency information."""
        return self.out_id is not None


class GraphIR:
    """The captured op graph: nodes in launch order plus dataflow indices."""

    def __init__(
        self,
        nodes: List[IRNode],
        output_ids: Set[int],
        aliases: Optional[Dict[int, int]] = None,
        constant_ids: Optional[Set[int]] = None,
    ) -> None:
        self.nodes = nodes
        #: Tensor ids the step returned (its observable results).
        self.output_ids = set(output_ids)
        #: View aliases: tensor id -> the id of the tensor it shares data
        #: with (a reshape produces no kernel but must not break edges).
        self.aliases = dict(aliases or {})
        #: Leaf tensor ids declared constant for the lifetime of the plan.
        self.constant_ids = set(constant_ids or ())
        self._producer: Dict[int, IRNode] = {}
        for node in nodes:
            if node.out_id is not None:
                self._producer[node.out_id] = node

    # ------------------------------------------------------------------
    def resolve(self, tensor_id: int) -> int:
        """Follow view aliases back to the canonical producing tensor id."""
        seen = set()
        while tensor_id in self.aliases and tensor_id not in seen:
            seen.add(tensor_id)
            tensor_id = self.aliases[tensor_id]
        return tensor_id

    def producer(self, tensor_id: int) -> Optional[IRNode]:
        """The node that produced ``tensor_id`` (through aliases), if traced."""
        return self._producer.get(self.resolve(tensor_id))

    def consumers(self) -> Dict[int, List[IRNode]]:
        """Map from node index to the nodes consuming its output."""
        out: Dict[int, List[IRNode]] = {}
        for node in self.nodes:
            for pid in node.parent_ids:
                parent = self.producer(pid)
                if parent is not None:
                    out.setdefault(parent.index, []).append(node)
        return out

    def is_output(self, node: IRNode) -> bool:
        """True if the node's output is one of the step's returned tensors."""
        if node.out_id is None:
            return False
        resolved_outputs = {self.resolve(t) for t in self.output_ids}
        return self.resolve(node.out_id) in resolved_outputs

    def release_arrays(self) -> None:
        """Drop the captured output arrays; a cached plan must not pin a step's activations."""
        for node in self.nodes:
            node.out_data = None

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        traced = sum(1 for n in self.nodes if n.has_dataflow)
        return f"GraphIR({len(self.nodes)} kernels, {traced} with dataflow)"


@dataclass
class PassStats:
    """What each optimization pass did to a captured graph."""

    dce_removed: int = 0
    cse_removed: int = 0
    folded: int = 0
    fused_groups: int = 0
    fused_members: int = 0
    #: Fused groups that are whole SDDMM->softmax->SpMM attention pipelines
    #: (a subset of ``fused_groups``, produced by the ``attention`` pass).
    attention_groups: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"dce={self.dce_removed} cse={self.cse_removed} fold={self.folded} "
            f"fusion={self.fused_groups} groups ({self.fused_members} launches saved, "
            f"{self.attention_groups} attention pipelines)"
        )
