"""Hardware specifications for the simulated GPU.

The paper runs every experiment on NVIDIA GeForce RTX 2080 Ti cards.  We model
a GPU with a small set of parameters that feed a roofline kernel cost model:
peak fp32 throughput, memory bandwidth, a fixed host-side launch overhead and
a minimum kernel duration (even a tiny kernel occupies the device for a couple
of microseconds).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU used by the cost model.

    Attributes:
        name: Human readable device name.
        peak_flops: Peak fp32 throughput in FLOP/s.
        mem_bandwidth: Device memory bandwidth in bytes/s.
        memory_bytes: Device memory capacity in bytes.
        launch_overhead: Host-side time to launch one kernel, in seconds.
            This models CUDA driver plus Python framework dispatch cost and
            is the dominant term for the tiny kernels GNNs issue on small
            graph batches.
        min_kernel_time: Minimum duration a kernel occupies the device, in
            seconds.
        pcie_bandwidth: Host<->device / peer-to-peer transfer bandwidth in
            bytes/s (PCIe 3.0 x16).
        pcie_latency: Fixed latency per transfer, in seconds.
    """

    name: str
    peak_flops: float
    mem_bandwidth: float
    memory_bytes: int
    launch_overhead: float = 35e-6
    min_kernel_time: float = 3e-6
    pcie_bandwidth: float = 12e9
    pcie_latency: float = 10e-6

    @property
    def ridge_point(self) -> float:
        """Arithmetic intensity (FLOP/byte) where the roofline legs meet.

        Independent of the per-kernel ``efficiency`` factor because that
        factor derates both legs equally; below this intensity a kernel is
        bandwidth-limited, above it compute-limited.
        """
        return self.peak_flops / self.mem_bandwidth

    def roofline_times(
        self, flops: float, bytes_moved: float, efficiency: float = 1.0
    ) -> "Tuple[float, float]":
        """Return the ``(compute, memory)`` legs of the roofline, in seconds.

        The raw per-leg durations *before* the ``min_kernel_time`` floor;
        :meth:`kernel_time` takes their max, and the roofline classifier
        (:mod:`repro.device.roofline`) compares them to name the bound.
        """
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("efficiency must be in (0, 1]")
        compute_leg = flops / (self.peak_flops * efficiency)
        memory_leg = bytes_moved / (self.mem_bandwidth * efficiency)
        return compute_leg, memory_leg

    def kernel_time(self, flops: float, bytes_moved: float, efficiency: float = 1.0) -> float:
        """Return the device-side duration of a kernel via a roofline model.

        The kernel is limited either by arithmetic throughput or by memory
        bandwidth, whichever bound is higher, and never finishes faster than
        ``min_kernel_time``.  ``efficiency`` scales the achievable peak:
        dense BLAS kernels run near the roofline, sparse/indirect kernels
        (scatter, GSpMM) achieve a fraction of it.
        """
        compute_bound, memory_bound = self.roofline_times(flops, bytes_moved, efficiency)
        return max(compute_bound, memory_bound, self.min_kernel_time)

    def transfer_time(self, nbytes: float) -> float:
        """Return the time to move ``nbytes`` across PCIe."""
        return self.pcie_latency + nbytes / self.pcie_bandwidth


#: Achieved fraction of the roofline per kernel family.  Sparse/indirect
#: kernels (GSpMM, scatter) reach a fraction of peak bandwidth because of
#: random access; dense BLAS/elementwise kernels run near it.  Matched by
#: kernel-name prefix, first hit wins.
KERNEL_EFFICIENCY = (
    ("gspmm", 0.2),
    ("gsddmm", 0.2),
    ("edge_softmax", 0.2),
    ("coo_to_csr", 0.2),
    ("segment_reduce", 0.45),
    ("segment_sum", 0.45),
    ("segment_mean", 0.45),
    ("segment_max", 0.45),
    ("scatter", 0.5),
    ("gather", 0.5),
    ("grad_accumulate", 0.85),
)


@lru_cache(maxsize=1024)
def kernel_efficiency(name: str) -> float:
    """Look up the roofline efficiency for a kernel by name prefix.

    Memoised per name: every launch asks, and the answer is a pure
    function of the constant table above.
    """
    for prefix, prefix_eff in KERNEL_EFFICIENCY:
        if name.startswith(prefix):
            return prefix_eff
    return 0.85


#: The card used throughout the paper's evaluation (Section IV).
RTX_2080TI = GPUSpec(
    name="NVIDIA GeForce RTX 2080 Ti",
    peak_flops=13.45e12,
    mem_bandwidth=616e9,
    memory_bytes=11 * 1024**3,
)

#: A deliberately slow/small device, handy for OOM and sensitivity tests.
TOY_GPU = GPUSpec(
    name="toy-gpu",
    peak_flops=1e12,
    mem_bandwidth=100e9,
    memory_bytes=64 * 1024**2,
)
