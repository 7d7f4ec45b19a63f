"""Record what a backward pass over constants launches (``dead_gradients.json``).

``matmul`` and ``mul`` do not compute the gradient of a parent with
``requires_grad=False``; the kernels they *charge* must not notice.  Each
case below runs one forward and backward in which a constant is consumed
once, twice by the same op, or by a skipping op and a non-skipping one,
and keeps every launch in order (``"name flops bytes"``, the numbers as
``float.hex()``).
``tests/tensor/test_dead_gradients.py`` asserts equality with the
committed file, which was written with the ``src`` of the last commit that
still computed those gradients on the path::

    PYTHONPATH=<that checkout>/src python tests/fixtures/record_dead_gradients.py

so the ``grad_accumulate`` a twice-used constant has always been charged
(both packs' GCN degree norm, the full-graph input) stays in the sequence.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.device import Device, use_device
from repro.tensor import Tensor, ops

FIXTURE = Path(__file__).with_name("dead_gradients.json")

N, F, H = 5, 4, 3


def _norm_on_both_sides(x, norm, w, v):
    """dglx GCN: the ``(N, 1)`` degree norm scales before and after the product."""
    return ops.mul(ops.matmul(ops.mul(w, norm), v), norm)


def _input_into_two_products(x, norm, w, v):
    """The constant input feeds two products; so does the weight, whose gradient is live."""
    return ops.add(ops.matmul(x, v), ops.matmul(x, v))


def _product_plus_residual(x, norm, w, v):
    """``add`` returns the input's gradient first, then ``matmul`` skips it."""
    return ops.add(ops.matmul(x, ops.matmul(v, v.T)), x)


def _product_over_residual(x, norm, w, v):
    """``matmul`` skips the input's gradient first, then ``add`` returns one."""
    return ops.matmul(x, ops.matmul(ops.add(x, w).T, w))


def _constant_used_once(x, norm, w, v):
    return ops.mul(ops.matmul(x, v), norm)


#: ``case(x, norm, w, v)``: ``x (N, F)`` and ``norm (N, 1)`` are constants,
#: ``w (N, F)`` and ``v (F, H)`` require grad.
CASES: Dict[str, Callable[..., Tensor]] = {
    "norm_on_both_sides": _norm_on_both_sides,
    "input_into_two_products": _input_into_two_products,
    "product_plus_residual": _product_plus_residual,
    "product_over_residual": _product_over_residual,
    "constant_used_once": _constant_used_once,
}


def run(case: str) -> List[str]:
    """``"name flops bytes"`` of every launch of ``case``'s forward + backward."""
    rng = np.random.default_rng(0)
    device = Device()
    device.profiler.enabled = True
    with use_device(device):
        x = Tensor(rng.standard_normal((N, F)))
        norm = Tensor(rng.random((N, 1)) + 0.5)
        w = Tensor(rng.standard_normal((N, F)), requires_grad=True)
        v = Tensor(rng.standard_normal((F, H)), requires_grad=True)
        CASES[case](x, norm, w, v).sum().backward()
    return [
        f"{r.name} {float(r.flops).hex()} {float(r.bytes_moved).hex()}"
        for r in device.profiler.records
    ]


if __name__ == "__main__":
    recorded = {case: run(case) for case in CASES}
    FIXTURE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, recorded.values()))} launches to {FIXTURE}")
