"""Simulated hardware substrate: GPU spec, clock, memory, profiler.

The paper measures real 2080Ti GPUs with nvprof/Nsight/nvidia-smi.  This
package provides the simulated equivalents; see DESIGN.md section 2 for the
substitution rationale.
"""

from repro.device.clock import ClockSnapshot, SimClock
from repro.device.core import (
    Device,
    PRECISION_BYTE_SCALE,
    current_device,
    use_device,
)
from repro.device.fabric import (
    Fabric,
    FabricStats,
    Link,
    LinkSpec,
    LinkTransfer,
    NVLINK,
    PCIE_P2P,
)
from repro.device.gpu import GPUSpec, RTX_2080TI, TOY_GPU, kernel_efficiency
from repro.device.host import DEFAULT_HOST_COSTS, HostCostModel
from repro.device.kernel import KernelRecord, Profiler
from repro.device.memory import MemoryPool, OutOfMemoryError
from repro.device.prefetch import PrefetchLoader
from repro.device.roofline import (
    BOUND_CLASSES,
    classify_records,
    classify_transfer,
)
from repro.device.streams import DEFAULT_STREAM_ID, Event, Stream
from repro.device.timeline import to_chrome_trace, write_chrome_trace
from repro.device.trace_analysis import (
    KernelStats,
    kernel_stats,
    launch_bound_fraction,
    overlap_bound,
    top_kernels,
)

__all__ = [
    "ClockSnapshot",
    "SimClock",
    "Device",
    "PRECISION_BYTE_SCALE",
    "current_device",
    "use_device",
    "Fabric",
    "FabricStats",
    "Link",
    "LinkSpec",
    "LinkTransfer",
    "NVLINK",
    "PCIE_P2P",
    "GPUSpec",
    "RTX_2080TI",
    "TOY_GPU",
    "kernel_efficiency",
    "HostCostModel",
    "DEFAULT_HOST_COSTS",
    "KernelRecord",
    "Profiler",
    "MemoryPool",
    "OutOfMemoryError",
    "Stream",
    "Event",
    "DEFAULT_STREAM_ID",
    "PrefetchLoader",
    "to_chrome_trace",
    "write_chrome_trace",
    "KernelStats",
    "kernel_stats",
    "top_kernels",
    "launch_bound_fraction",
    "overlap_bound",
    "BOUND_CLASSES",
    "classify_records",
    "classify_transfer",
]
