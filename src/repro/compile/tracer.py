"""Graph capture: trace the kernel stream of one step into a :class:`GraphIR`.

Capture works like CUDA-graph stream capture: the step executes *eagerly*
(real numpy results, real clock charges — the capture step costs what an
eager step costs, on the simulated clock and on the host: nothing is
hashed or copied while the step runs) while the device forwards every
kernel launch to the active tracer.  :func:`repro.tensor.make_op`
additionally annotates the launch it just made with the output/parent
tensors, giving the IR its dataflow edges, and — for an output outside the
autograd graph — the output array, which CSE fingerprints afterwards for
the few nodes it could eliminate.  A fused op annotates the launches of the
chain it stands for itself, naming each interior output by its charge
(:meth:`Tracer.annotate_interior`).

Tensor identities in the IR are capture-local serials, not ``id()``s.  The
tracer holds each tensor it sees through a weak reference whose callback
retires its serial, so a tensor that reuses a dead one's ``id()`` gets a new
serial.  It keeps no tensor alive: the host frees what an eager step frees.
The device keeps charging every tensor the tracer saw until the capture
ends (:meth:`MemoryPool.hold <repro.device.memory.MemoryPool.hold>`), and
the tracer keeps each seen tensor's autograd node as long, so a backward
that never runs holds what it saved until then too: the step is charged as
if every tensor it made lived until the capture ends.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compile.ir import GraphIR, IRNode
from repro.device import current_device
from repro.device.memory import Charge

#: Arrays larger than this are not content-fingerprinted (CSE treats their
#: tensors as unique); hashing is capture-only but should stay cheap.
MAX_HASH_BYTES = 8 * 1024 * 1024


def content_hash(array) -> Optional[str]:
    """Cheap content fingerprint of a numpy array, or None if too large."""
    if array.nbytes > MAX_HASH_BYTES:
        return None
    import hashlib  # only a capture that finds CSE candidates pays for it

    digest = hashlib.sha1()
    digest.update(str(array.shape).encode())
    digest.update(str(array.dtype).encode())
    digest.update(array if array.flags.c_contiguous else np.ascontiguousarray(array))
    return digest.hexdigest()


class _Seen(weakref.ref):
    """Weak reference to a tensor the tracer has seen, carrying its serial."""

    __slots__ = ("key", "serial")


class Tracer:
    """Records the kernel stream + dataflow of one step under capture.

    Built on the device it will capture on; call :meth:`release` once the
    IR's arrays are dropped (or the capture failed) to end the device's hold
    on what the step allocated.
    """

    def __init__(self) -> None:
        self.nodes: List[IRNode] = []
        self.aliases: Dict[int, int] = {}
        self.constant_ids: Set[int] = set()
        self._pool = current_device().memory
        self._seen: Dict[int, _Seen] = {}
        self._serials = itertools.count()

        def retire(ref: _Seen, seen=self._seen) -> None:
            # Runs while the tensor is collected, before its id can be reused.
            if seen.get(ref.key) is ref:
                del seen[ref.key]

        self._retire = retire
        # Autograd nodes of seen tensors: a backward that never runs keeps
        # what it saved until the capture ends.
        self._grad_nodes: List[object] = []

    def _serial(self, tensor) -> int:
        """``tensor``'s capture-local serial; the first sight holds its charge."""
        ref = self._seen.get(id(tensor))
        if ref is not None:
            return ref.serial
        ref = _Seen(tensor, self._retire)
        ref.key = id(tensor)
        ref.serial = next(self._serials)
        self._seen[ref.key] = ref
        if type(tensor) is Charge:
            # A fused op's interior output: no array, no node, only its charge.
            self._pool.hold(tensor)
            return ref.serial
        # A DeclaredTensor is tracked as itself; ``.data`` would build it.
        self._pool.hold(tensor if hasattr(tensor, "charge") else tensor.data)
        if tensor._node is not None:
            self._grad_nodes.append(tensor._node)
        return ref.serial

    # ------------------------------------------------------------------
    # hooks called by the device / tensor engine
    # ------------------------------------------------------------------
    def on_launch(
        self, name: str, flops: float, bytes_moved: float, scope: Tuple[str, ...]
    ) -> None:
        """Record one kernel launch (called by ``Device.launch``)."""
        self.nodes.append(
            IRNode(
                index=len(self.nodes),
                name=name,
                scope=scope,
                flops=flops,
                bytes_moved=bytes_moved,
            )
        )

    def annotate_op(self, out, parents: Sequence[object]) -> None:
        """Attach dataflow of a ``make_op`` call to the latest launch."""
        node = self.annotate_interior(out, out.shape, out.requires_grad, parents)
        if not node.requires_grad:
            # Only CSE reads it, and only for nodes outside the autograd graph.
            node.out_data = out.data

    def annotate_interior(
        self, out, shape: Tuple[int, ...], requires_grad: bool, parents: Sequence[object]
    ) -> IRNode:
        """Attach dataflow to the latest launch; the node.

        ``out`` may be the :class:`~repro.device.memory.Charge` of a fused
        op's interior output, the tensor its unfused chain made: it takes a
        serial as that tensor did, and the pool holds it until the capture
        ends.  With no array behind it, CSE treats it as unique, as it
        treats an array over :data:`MAX_HASH_BYTES`.
        """
        if not self.nodes:
            raise RuntimeError("annotate_op called before any launch was traced")
        node = self.nodes[-1]
        node.out_id = self._serial(out)
        node.out_shape = tuple(shape)
        node.out_size = math.prod(shape)
        node.requires_grad = bool(requires_grad)
        node.parent_ids = tuple(self._serial(p) for p in parents)
        return node

    def alias(self, out, source) -> None:
        """Record that ``out`` is a kernel-free view of ``source``."""
        self.aliases[self._serial(out)] = self._serial(source)

    def mark_constant(self, tensor) -> None:
        """Declare a leaf tensor (a coerced scalar literal) constant for the plan."""
        self.constant_ids.add(self._serial(tensor))

    # ------------------------------------------------------------------
    def finish(self, outputs: Sequence[object] = ()) -> GraphIR:
        """Close the capture and return the IR.

        ``outputs`` are the step's returned tensors; their producing nodes
        are roots of the liveness analysis in DCE.
        """
        return GraphIR(
            nodes=self.nodes,
            output_ids={self._serial(out) for out in _flatten(outputs)},
            aliases=self.aliases,
            constant_ids=self.constant_ids,
        )

    def release(self) -> None:
        """End the capture's hold: the device frees what the step no longer holds.

        Drops the seen tensors' autograd nodes and identities too.  Call it
        after :meth:`GraphIR.release_arrays` when the IR is done with, or
        while a failed capture unwinds.
        """
        self._pool.release_held()
        self._seen.clear()
        self._grad_nodes.clear()


def _flatten(value) -> List[object]:
    """Collect Tensor-like leaves from nested tuples/lists/dicts."""
    from repro.tensor import Tensor

    if isinstance(value, Tensor):
        return [value]
    if isinstance(value, (tuple, list)):
        out: List[object] = []
        for item in value:
            out.extend(_flatten(item))
        return out
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(_flatten(item))
        return out
    return []
