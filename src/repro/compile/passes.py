"""Optimization passes over a captured :class:`GraphIR`.

Each pass assigns *actions* to nodes; the actions are then lowered into an
:class:`~repro.compile.plan.ExecutionPlan` that the device replays.
Actions:

* ``eager`` — launch as captured (the default).
* ``skip``  — the compiled artifact would not run this kernel at all
  (dead code, a CSE duplicate, or a folded constant).
* ``fuse_head`` / ``fuse_member`` — the kernel is merged into a fused
  group that pays a single launch overhead; interior producer->consumer
  edges also stop paying for the intermediate's round-trip through device
  memory.

Passes are conservative where the IR is blind: opaque nodes (backward and
optimizer kernels, which carry no dataflow) are never eliminated, only
fused by stream adjacency — precisely what an epilogue-fusing runtime does
with a kernel stream it cannot introspect.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.compile.ir import GraphIR, IRNode, PassStats
from repro.compile.tracer import content_hash

ACTION_EAGER = "eager"
ACTION_SKIP = "skip"
ACTION_FUSE_HEAD = "fuse_head"
ACTION_FUSE_MEMBER = "fuse_member"

_F32 = 4

#: Largest number of kernels merged into one fused launch.
MAX_GROUP = 8

#: Kernels that are elementwise maps over their inputs: they can join a
#: fusion chain in any position after the head.  Backward kernels of
#: elementwise ops are elementwise too, as are the per-parameter optimizer
#: updates and gradient accumulations.
ELEMENTWISE_KERNELS = frozenset(
    {
        "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "log1p",
        "sqrt", "abs", "relu", "leaky_relu", "elu", "sigmoid", "tanh",
        "clamp_min", "dropout", "maximum", "minimum", "where",
        "add_backward", "sub_backward", "mul_backward", "div_backward",
        "neg_backward", "pow_backward", "exp_backward", "log_backward",
        "log1p_backward", "sqrt_backward", "abs_backward", "relu_backward",
        "leaky_relu_backward", "elu_backward", "sigmoid_backward",
        "tanh_backward", "clamp_backward", "dropout_backward",
        "maximum_backward", "minimum_backward", "where_backward",
        "grad_accumulate", "adam_exp_avg", "adam_exp_avg_sq", "adam_update",
        "sgd_update", "l2_normalize",
    }
)

#: Kernels that must never participate in fusion (synchronisation points,
#: host-mediated collectives).
BARRIERS = frozenset({"all_reduce", "broadcast"})


@dataclass
class NodeDecision:
    """Per-node outcome of the pass pipeline."""

    action: str = ACTION_EAGER
    group: Optional[int] = None  # fusion group id, if fused
    byte_scale: float = 1.0  # fraction of captured bytes still paid when fused


# ----------------------------------------------------------------------
# dead code elimination
# ----------------------------------------------------------------------
def dead_code_elimination(
    ir: GraphIR, decisions: List[NodeDecision], stats: PassStats
) -> None:
    """Skip nodes whose outputs nothing observes.

    Only dataflow-annotated, autograd-free nodes are candidates; a node is
    live when it is opaque (conservatively), participates in autograd,
    produces a step output, or feeds a live node.  Consumers always launch
    after their producers, so one reverse walk settles liveness, including
    transitively-dead chains.
    """
    consumers = ir.consumers()
    skipped = {i for i, d in enumerate(decisions) if d.action == ACTION_SKIP}
    live: Set[int] = set()
    for node in reversed(ir.nodes):
        if node.index in skipped:
            continue
        if not node.has_dataflow or node.requires_grad or ir.is_output(node):
            live.add(node.index)
            continue
        if any(c.index in live for c in consumers.get(node.index, ())):
            live.add(node.index)
            continue
        decisions[node.index].action = ACTION_SKIP
        stats.dce_removed += 1


# ----------------------------------------------------------------------
# common subexpression elimination
# ----------------------------------------------------------------------
def common_subexpression_elimination(
    ir: GraphIR, decisions: List[NodeDecision], stats: PassStats
) -> None:
    """Skip structurally duplicated autograd-free computations.

    Two nodes match when they run the same kernel over the same shapes and
    produced bit-identical outputs at capture time; the output fingerprint
    stands in for op attributes the IR does not carry (e.g. gather index
    vectors).  Only nodes outside the autograd graph are eligible —
    eliminating a duplicate with a live backward closure would
    desynchronise the backward kernel stream.  The canonical example is
    GCN's per-layer degree-normalisation chain, recomputed identically by
    every layer from the same edge index (what PyG's ``cached=True``
    avoids).
    """
    candidates = [
        node
        for node in ir.nodes
        if node.has_dataflow
        and decisions[node.index].action != ACTION_SKIP
        and not node.requires_grad
        and node.name != "dropout"  # RNG: never deduplicate
        and not ir.is_output(node)
    ]
    # Fingerprinting is the cost of this pass, so only a node that shares its
    # kernel and shape with another candidate is hashed at all.
    shapes = Counter((node.name, node.out_shape) for node in candidates)
    seen: Set[tuple] = set()
    for node in candidates:
        if shapes[node.name, node.out_shape] < 2:
            continue
        if node.out_hash is None and node.out_data is not None:
            node.out_hash = content_hash(node.out_data)
        if node.out_hash is None:
            continue
        key = (node.name, node.out_shape, node.out_hash)
        if key in seen:
            decisions[node.index].action = ACTION_SKIP
            stats.cse_removed += 1
        else:
            seen.add(key)


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------
def constant_folding(ir: GraphIR, decisions: List[NodeDecision], stats: PassStats) -> None:
    """Skip one-element autograd-free ops whose inputs are all plan constants.

    A compiled artifact bakes shape-derived scalars (normalisation factors,
    epsilon offsets) into the fused kernels instead of launching a kernel
    to recompute them every step.  Inputs count as constant when they are
    scalar literals coerced during capture (registered automatically) or
    outputs of already-folded nodes.
    """
    constant_values: Set[int] = {ir.resolve(c) for c in ir.constant_ids}
    for node in ir.nodes:
        if not node.has_dataflow or decisions[node.index].action == ACTION_SKIP:
            continue
        if node.requires_grad or node.out_size > 1:
            continue
        if not node.parent_ids or ir.is_output(node):
            continue
        if all(ir.resolve(pid) in constant_values for pid in node.parent_ids):
            decisions[node.index].action = ACTION_SKIP
            constant_values.add(ir.resolve(node.out_id))
            stats.folded += 1


# ----------------------------------------------------------------------
# attention-pipeline fusion (SDDMM -> edge softmax -> SpMM)
# ----------------------------------------------------------------------
def _next_group_id(decisions: List[NodeDecision]) -> int:
    """First fusion-group id not yet taken by an earlier pass."""
    return max((d.group for d in decisions if d.group is not None), default=-1) + 1


def fuse_attention(ir: GraphIR, decisions: List[NodeDecision], stats: PassStats) -> None:
    """Collapse SDDMM → edge-softmax → SpMM pipelines into one launch group.

    The attention pattern every GAT-class model lowers to: a GSDDMM kernel
    produces per-edge logits, an edge softmax normalises them, and a GSpMM
    aggregates the attention-weighted messages.  All three touch the same
    edge-order intermediates, so a fused launch keeps them on-chip — the
    chain is matched on the *forward* stream only (backward kernels never
    join), elementwise kernels between the stages (leaky_relu, dropout)
    ride along, and a chain missing either the softmax or the closing SpMM
    is abandoned untouched.

    Runs before :func:`fuse_elementwise`, which treats the groups made here
    as opaque.  Exact numerics are guaranteed by construction — replay runs
    the same python kernels and only re-times them — and the replay
    session's name guard falls back to eager execution on any divergence.
    """
    group_id = _next_group_id(decisions)
    chain: List[IRNode] = []
    saw_softmax = False

    for node in ir.nodes:
        if decisions[node.index].action == ACTION_SKIP:
            continue
        name = node.name
        is_backward = "backward" in name
        if name.startswith("gsddmm") and not is_backward:
            chain = [node]  # (re)start a candidate pipeline at the SDDMM
            saw_softmax = False
            continue
        if not chain:
            continue
        if name.startswith("edge_softmax") and not is_backward:
            saw_softmax = True
            chain.append(node)
        elif (
            name.startswith("gspmm")
            and not is_backward
            and saw_softmax
            and len(chain) < MAX_GROUP
        ):
            chain.append(node)
            _mark_chain(ir, decisions, chain, group_id)
            group_id += 1
            stats.attention_groups += 1
            stats.fused_groups += 1
            stats.fused_members += len(chain) - 1
            chain = []
            saw_softmax = False
            continue
        elif name in ELEMENTWISE_KERNELS and name not in BARRIERS:
            chain.append(node)
        else:
            chain = []
            saw_softmax = False
            continue
        if len(chain) >= MAX_GROUP:
            chain = []
            saw_softmax = False


# ----------------------------------------------------------------------
# greedy elementwise / epilogue fusion
# ----------------------------------------------------------------------
def fuse_elementwise(ir: GraphIR, decisions: List[NodeDecision], stats: PassStats) -> None:
    """Greedy epilogue fusion over the surviving kernel stream.

    Walks the stream in launch order; any kernel may *head* a chain
    (``matmul``, ``scatter_sum``, ``gspmm``, ...), and consecutive
    elementwise kernels join it until the group is full or the next
    non-elementwise kernel arrives (which heads the following chain).
    Skipped nodes are transparent — the compiled artifact does not run
    them, so they cannot break a chain.  Nodes already placed into a group
    by an earlier pass (attention-pipeline fusion) are opaque barriers:
    their groups are kept intact and never extended.

    Each producer->consumer edge interior to a chain stops paying for the
    intermediate tensor's write+read through device memory; members without
    visible dataflow (backward kernels) still save their launch overhead —
    the dominant term in the launch-bound regime the paper measures — but
    keep their byte costs.
    """
    chains: List[List[IRNode]] = []
    current: List[IRNode] = []
    for node in ir.nodes:
        if decisions[node.index].action == ACTION_SKIP:
            continue
        if decisions[node.index].group is not None:
            chains.append(current)
            current = []
            continue
        if node.name in BARRIERS:
            chains.append(current)
            current = []
            chains.append([node])
            continue
        if node.name in ELEMENTWISE_KERNELS and current and len(current) < MAX_GROUP:
            current.append(node)
            continue
        chains.append(current)
        current = [node]
    chains.append(current)

    group_id = _next_group_id(decisions)
    for chain in chains:
        if len(chain) < 2:
            continue
        _mark_chain(ir, decisions, chain, group_id)
        group_id += 1
        stats.fused_groups += 1
        stats.fused_members += len(chain) - 1


def _mark_chain(
    ir: GraphIR, decisions: List[NodeDecision], chain: List[IRNode], group_id: int
) -> None:
    """Assign fusion actions + byte scales for one chain of nodes."""
    discounts = {node.index: 0.0 for node in chain}
    for prev, cur in zip(chain, chain[1:]):
        if prev.out_id is None or not cur.has_dataflow:
            continue
        prev_out = ir.resolve(prev.out_id)
        if any(ir.resolve(pid) == prev_out for pid in cur.parent_ids):
            # The intermediate stays in registers: the producer saves its
            # write, the consumer saves its read.
            saved = float(_F32 * prev.out_size)
            discounts[prev.index] += saved
            discounts[cur.index] += saved
    for position, node in enumerate(chain):
        decision = decisions[node.index]
        decision.action = ACTION_FUSE_HEAD if position == 0 else ACTION_FUSE_MEMBER
        decision.group = group_id
        if node.bytes_moved > 0:
            kept = max(node.bytes_moved - discounts[node.index], 0.0)
            decision.byte_scale = kept / node.bytes_moved
        else:
            decision.byte_scale = 1.0


# ----------------------------------------------------------------------
def run_passes(ir: GraphIR) -> Tuple[List[NodeDecision], PassStats]:
    """Run DCE, CSE, constant folding, attention fusion and elementwise fusion
    in that order; returns per-node decisions + stats."""
    decisions = [NodeDecision() for _ in ir.nodes]
    stats = PassStats()
    for run in (
        dead_code_elimination,
        common_subexpression_elimination,
        constant_folding,
        fuse_attention,
        fuse_elementwise,
    ):
        run(ir, decisions, stats)
    return decisions, stats
