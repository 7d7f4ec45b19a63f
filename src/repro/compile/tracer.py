"""Graph capture: trace the kernel stream of one step into a :class:`GraphIR`.

Capture works like CUDA-graph stream capture: the step executes *eagerly*
(real numpy results, real clock charges — the capture step costs what an
eager step costs, on the simulated clock and on the host: nothing is
hashed or copied while the step runs) while the device forwards every
kernel launch to the active tracer.  :func:`repro.tensor.make_op`
additionally annotates the launch it just made with the output/parent
tensors, giving the IR its dataflow edges, and the output array, which CSE
fingerprints afterwards for the few nodes it could eliminate.

The tracer holds strong references to every tensor it sees so CPython
cannot recycle an ``id()`` mid-capture; the references are dropped when the
capture context exits.
"""

from __future__ import annotations

import numpy as np

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.compile.ir import GraphIR, IRNode

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


class Tracer:
    """Records the kernel stream + dataflow of one step under capture."""

    def __init__(self) -> None:
        self.nodes: List[IRNode] = []
        self.aliases: Dict[int, int] = {}
        self.constant_ids: Set[int] = set()
        self._pins: List[object] = []  # strong refs keeping ids stable

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
        if not self.nodes:
            raise RuntimeError("annotate_op called before any launch was traced")
        node = self.nodes[-1]
        self._pins.append(out)
        self._pins.extend(parents)
        node.out_id = id(out)
        node.out_shape = tuple(out.shape)
        node.out_size = int(out.size)
        node.out_data = out.data
        node.requires_grad = bool(out.requires_grad)
        node.parent_ids = tuple(id(p) for p in parents)

    def alias(self, out, source) -> None:
        """Record that ``out`` is a kernel-free view of ``source``."""
        self._pins.append(out)
        self._pins.append(source)
        self.aliases[id(out)] = id(source)

    def mark_constant(self, tensor) -> None:
        """Declare a leaf tensor (a coerced scalar literal) constant for the plan."""
        self._pins.append(tensor)
        self.constant_ids.add(id(tensor))

    # ------------------------------------------------------------------
    def finish(self, outputs: Sequence[object] = ()) -> GraphIR:
        """Close the capture and return the IR.

        ``outputs`` are the step's returned tensors; their producing nodes
        are roots of the liveness analysis in DCE.
        """
        output_ids = set()
        for out in _flatten(outputs):
            self._pins.append(out)
            output_ids.add(id(out))
        return GraphIR(
            nodes=self.nodes,
            output_ids=output_ids,
            aliases=self.aliases,
            constant_ids=self.constant_ids,
        )


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
