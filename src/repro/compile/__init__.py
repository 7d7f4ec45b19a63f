"""repro.compile — graph capture, optimization passes, and fused replay.

The simulated-device analogue of CUDA Graphs + a fusing compiler
(torch.compile / TorchScript / TensorRT in the serving literature): trace
one step's kernel stream into an IR, optimise it (DCE, CSE, constant
folding, greedy elementwise fusion), and replay the compiled schedule so
kernel counts, timelines and memory reflect the fused execution — the
lever that matters most in the launch-bound regime the paper measures.

Entry points:

* :class:`CompiledStep` — wrap any step callable; used by
  ``repro.train`` trainers (``compile=True``) and
  ``repro.serve.InferenceModel.enable_compile()``.
* :func:`capture` — one-off capture of a callable into a
  :class:`GraphIR` for inspection.
"""

from repro.compile.compiled import (
    CompiledStep,
    CompileStats,
    default_signature,
)
from repro.compile.ir import GraphIR, IRNode, PassStats
from repro.compile.passes import (
    ACTION_EAGER,
    ACTION_FUSE_HEAD,
    ACTION_FUSE_MEMBER,
    ACTION_SKIP,
    ELEMENTWISE_KERNELS,
    NodeDecision,
    run_passes,
)
from repro.compile.plan import ExecutionPlan, GuardFailure, PlanNode, ReplaySession, build_plan
from repro.compile.tracer import Tracer, content_hash


def capture(fn, *args, **kwargs):
    """Run ``fn`` once under capture; returns ``(result, GraphIR)``."""
    from repro.device import current_device

    tracer = Tracer()
    with current_device().capturing(tracer):
        result = fn(*args, **kwargs)
    return result, tracer.finish(outputs=result)


__all__ = [
    "ACTION_EAGER",
    "ACTION_FUSE_HEAD",
    "ACTION_FUSE_MEMBER",
    "ACTION_SKIP",
    "CompiledStep",
    "CompileStats",
    "ELEMENTWISE_KERNELS",
    "ExecutionPlan",
    "GraphIR",
    "GuardFailure",
    "IRNode",
    "NodeDecision",
    "PassStats",
    "PlanNode",
    "ReplaySession",
    "Tracer",
    "build_plan",
    "capture",
    "content_hash",
    "default_signature",
    "run_passes",
]
