"""DGL-style message and reduce function builtins.

DGL users express message passing as ``g.update_all(fn.u_mul_e('h', 'a',
'm'), fn.sum('m', 'out'))``; the framework pattern-matches these specs and
lowers them to fused GSpMM/GSDDMM kernels.  We reproduce that API surface
with small spec objects consumed by :meth:`repro.dglx.heterograph.DGLGraph.
update_all` and ``apply_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MessageFunc:
    """Message function spec: how to form per-edge messages."""

    op: str  # "copy_u" | "u_mul_e"
    src_field: str
    edge_field: str  # "" when unused
    out_field: str


@dataclass(frozen=True)
class ReduceFunc:
    """Reduce function spec: how to aggregate messages per destination."""

    op: str  # "sum" | "mean"
    msg_field: str
    out_field: str


#: Binary combinators apply_edges lowers onto the generalized GSDDMM kernel.
EDGE_BINARY_OPS = ("add", "sub", "mul", "div", "dot")

#: Operand targets an EdgeFunc op name may reference.
EDGE_TARGETS = ("u", "v", "e")


@dataclass(frozen=True)
class EdgeFunc:
    """Edge-wise binary op spec for ``apply_edges``.

    ``op`` is ``"<lhs>_<binop>_<rhs>"`` with targets from
    :data:`EDGE_TARGETS` (``u`` = source, ``v`` = destination, ``e`` = edge)
    and combinators from :data:`EDGE_BINARY_OPS` — e.g. ``u_add_v``,
    ``u_dot_v``, ``u_mul_e``.  Lowered onto one fused
    :func:`repro.tensor.gsddmm` launch.
    """

    op: str
    src_field: str
    dst_field: str
    out_field: str

    def targets(self):
        """Return ``(lhs_target, binop, rhs_target)``; raises on bad specs."""
        parts = self.op.split("_")
        if (
            len(parts) != 3
            or parts[0] not in EDGE_TARGETS
            or parts[2] not in EDGE_TARGETS
            or parts[1] not in EDGE_BINARY_OPS
        ):
            raise ValueError(f"unsupported edge op {self.op!r}")
        return parts[0], parts[1], parts[2]


def copy_u(src_field: str, out_field: str) -> MessageFunc:
    """Message = source node feature."""
    return MessageFunc("copy_u", src_field, "", out_field)


def u_mul_e(src_field: str, edge_field: str, out_field: str) -> MessageFunc:
    """Message = source node feature * edge feature (broadcast)."""
    return MessageFunc("u_mul_e", src_field, edge_field, out_field)


def sum(msg_field: str, out_field: str) -> ReduceFunc:  # noqa: A001
    """Sum messages per destination node."""
    return ReduceFunc("sum", msg_field, out_field)


def mean(msg_field: str, out_field: str) -> ReduceFunc:
    """Average messages per destination node."""
    return ReduceFunc("mean", msg_field, out_field)


def max(msg_field: str, out_field: str) -> ReduceFunc:  # noqa: A001
    """Max-reduce messages per destination node."""
    return ReduceFunc("max", msg_field, out_field)


def u_add_v(src_field: str, dst_field: str, out_field: str) -> EdgeFunc:
    """Per-edge sum of source and destination node features."""
    return EdgeFunc("u_add_v", src_field, dst_field, out_field)
