"""CompiledStep: capture-once / replay-many execution of a step function.

The user-facing entry point of :mod:`repro.compile`.  Wrap any step
callable (a training step, an inference forward) and call it as before:

* the first call with a given input *signature* runs eagerly under
  capture, optimises the captured IR and builds an execution plan;
* subsequent calls re-execute the Python eagerly for numerics while the
  device charges the compiled schedule (fewer launches, fused kernels);
* if the kernel stream diverges from the plan mid-step — a control-flow
  or shape change the signature did not distinguish — the replay *fails
  open*: the rest of the step is charged eagerly, the stale plan is
  dropped, and the next call recaptures.

Signatures are structural (tensor rank + feature width, not exact shapes)
because GNN batches vary in node/edge counts while the kernel sequence
stays fixed — the same bucketing trick CUDA Graphs deployments use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.compile.passes import run_passes
from repro.compile.plan import ExecutionPlan, ReplaySession, build_plan
from repro.compile.tracer import Tracer
from repro.device import current_device

#: Upper bound on cached plans; a new one evicts the oldest (FIFO), bounding
#: memory like CUDA-graph bucket pools.
MAX_PLANS = 16


def default_signature(args: Sequence[Any], kwargs: Dict[str, Any]) -> Tuple:
    """Structural signature of a step's inputs.

    Distinguishes inputs by *kind* and feature width, not exact shape:
    two ENZYMES batches with different node counts produce the same kernel
    sequence, so they share a plan.
    """
    parts = [_describe(a) for a in args]
    parts.extend((k, _describe(v)) for k, v in sorted(kwargs.items()))
    return tuple(parts)


def _describe(value: Any) -> Tuple:
    import numpy as np

    from repro.tensor import Tensor

    if isinstance(value, Tensor):
        return ("tensor", value.ndim, value.shape[-1] if value.ndim >= 2 else 1)
    if isinstance(value, np.ndarray):
        return ("ndarray", value.ndim, value.shape[-1] if value.ndim >= 2 else 1)
    if isinstance(value, (int, float, bool, str, type(None))):
        return ("scalar", value)
    x = getattr(value, "x", None)
    if x is not None and hasattr(value, "edge_index"):
        # Duck-typed pygx Batch: node features + COO edge index.
        return ("pygx", int(x.shape[-1]))
    ndata = getattr(value, "ndata", None)
    if ndata is not None and "feat" in ndata:
        # Duck-typed dglx graph: feature dict keyed by name.
        return ("dglx", int(ndata["feat"].shape[-1]))
    return ("opaque", type(value).__name__)


@dataclass
class CompileStats:
    """Lifetime counters of one :class:`CompiledStep`."""

    captures: int = 0
    replays: int = 0
    guard_failures: int = 0
    eager_calls: int = 0

    def __repr__(self) -> str:
        return (
            f"CompileStats(captures={self.captures}, replays={self.replays}, "
            f"guard_failures={self.guard_failures}, eager_calls={self.eager_calls})"
        )


class CompiledStep:
    """Capture-and-replay wrapper around a step function.

    ``fn`` is the step callable.  Its returned tensors become the outputs
    of the captured graph (roots for dead-code elimination).  Plans are
    keyed by :func:`default_signature`.
    """

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.plans: Dict[Tuple, ExecutionPlan] = {}
        self.stats = CompileStats()
        self.last_session: Optional[ReplaySession] = None

    # ------------------------------------------------------------------
    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        device = current_device()
        if device.capturing_or_replaying:
            # Nested compiled regions collapse into the outer one.
            self.stats.eager_calls += 1
            return self.fn(*args, **kwargs)
        signature = default_signature(args, kwargs)
        plan = self.plans.get(signature)
        if plan is None:
            return self._capture(device, signature, args, kwargs)
        return self._replay(device, plan, signature, args, kwargs)

    # ------------------------------------------------------------------
    def _capture(self, device, signature: Tuple, args, kwargs) -> Any:
        tracer = Tracer()
        with device.capturing(tracer):
            result = self.fn(*args, **kwargs)
        ir = tracer.finish(outputs=result)
        decisions, stats = run_passes(ir)
        ir.release_arrays()
        plan = build_plan(ir, decisions, stats)
        if len(self.plans) >= MAX_PLANS:
            oldest = next(iter(self.plans))
            del self.plans[oldest]
        self.plans[signature] = plan
        self.stats.captures += 1
        return result

    def _replay(self, device, plan: ExecutionPlan, signature: Tuple, args, kwargs) -> Any:
        session = ReplaySession(plan)
        with device.replaying(session):
            result = self.fn(*args, **kwargs)
        self.last_session = session
        if session.failed:
            # Shape/control-flow drift: the eager fallback already charged
            # the remainder; drop the stale plan so the next call recaptures.
            self.stats.guard_failures += 1
            self.plans.pop(signature, None)
        else:
            self.stats.replays += 1
        return result

    def __repr__(self) -> str:
        return f"CompiledStep({getattr(self.fn, '__name__', 'fn')!r}, plans={len(self.plans)}, {self.stats!r})"
