"""Roofline queries: classify kernels as launch-, bandwidth- or compute-bound.

The source paper attributes framework performance gaps to individual
operations, and the op-level benchmarking literature (Magnifying Glass,
arXiv 2211.03021; Operation-Level Performance Benchmarking, arXiv
2207.09955) makes that systematic: place every kernel on the device's
roofline and name the resource that bounds it.  This module provides that
classification for the simulated device:

* **launch-bound** — the host-side dispatch cost is at least as large as
  the device-side body; making the kernel itself faster cannot help
  (the regime the paper measures for GNN training on small graph
  batches, and the one ``repro.compile`` fusion attacks).
* **bandwidth-bound** — the memory-traffic leg of the roofline dominates:
  arithmetic intensity sits left of the ridge point.
* **compute-bound** — the FLOP leg dominates: intensity at or right of
  the ridge point (ties go to compute, so an op *exactly at* the ridge
  classifies deterministically).

All inputs are the same FLOP / byte counts the cost model already charges
per launch, so classification is exact and deterministic — CI gates on it.
"""

from __future__ import annotations

from typing import Sequence

from repro.device.gpu import GPUSpec, kernel_efficiency
from repro.device.kernel import KernelRecord

#: The three bound classes, in "how to fix it" order.
BOUND_CLASSES = ("launch", "bandwidth", "compute")


def classify_transfer(spec: GPUSpec, nbytes: float) -> str:
    """Classify a PCIe copy: latency- (``launch``) or bandwidth-bound.

    Copies do no arithmetic, so ``compute`` is impossible; a transfer is
    launch-bound while the fixed per-transfer latency is at least the
    wire time (tiny H2D copies), bandwidth-bound beyond that.
    """
    wire = nbytes / spec.pcie_bandwidth
    return "launch" if wire <= spec.pcie_latency else "bandwidth"


def classify_records(spec: GPUSpec, records: Sequence[KernelRecord]) -> str:
    """Classify an *operation* — a short sequence of launches — as a whole.

    If the host spent at least as long dispatching the launches as the
    device spent executing their bodies, the op is launch-bound (faster
    kernels will not move it); a single launch whose body, floored at
    ``min_kernel_time``, does not exceed ``launch_overhead`` lands here even
    with zero work.  Otherwise the dominant roofline leg, summed per launch
    at each kernel's achieved efficiency, names the bound.  ``memcpy_*``
    records are placed on the PCIe roofline instead (wire time as the
    memory leg, per-transfer latency as the dispatch cost), keeping this
    consistent with :func:`classify_transfer` for a single record.
    """
    if not records:
        raise ValueError("cannot classify an empty record sequence")
    dispatch = 0.0
    body = 0.0
    compute_t = 0.0
    memory_t = 0.0
    for r in records:
        if r.name.startswith("memcpy"):
            wire = r.bytes_moved / spec.pcie_bandwidth
            dispatch += spec.pcie_latency
            body += wire
            memory_t += wire
            continue
        dispatch += spec.launch_overhead
        body += max(r.duration, spec.min_kernel_time)
        c, m = spec.roofline_times(r.flops, r.bytes_moved, kernel_efficiency(r.name))
        compute_t += c
        memory_t += m
    if dispatch >= body:
        return "launch"
    return "compute" if compute_t >= memory_t else "bandwidth"
