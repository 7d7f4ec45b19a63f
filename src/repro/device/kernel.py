"""Kernel launch records and the scoped profiler.

The paper collects per-kernel timings with nvprof / Nsight Compute and
aggregates them per conv layer (Fig. 3).  We reproduce that observable by
recording every simulated kernel launch together with the *scope stack*
active at launch time.  Model layers push their name onto the scope stack in
``Module.__call__``, so a record's scope looks like
``("GCNNet", "layers.0", "linear")`` and Fig. 3 is a group-by over prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class KernelRecord:
    """One simulated kernel launch."""

    name: str
    scope: Tuple[str, ...]
    duration: float
    flops: float
    bytes_moved: float
    timestamp: float
    #: Simulated device memory in use when the kernel retired, in bytes.
    #: Defaults to 0.0 so records built by older call sites stay valid.
    memory: float = 0.0
    #: Id of the stream the kernel executed on (0 = default stream), so
    #: the Chrome trace can render one track per stream.
    stream: int = 0
    #: Training-loop phase active at launch ("sampling", "data_loading",
    #: "forward", "comm", ...; empty outside any phase).  Lets sampled-
    #: training profiles attribute sampler time separately from data
    #: loading and compute, and distributed profiles attribute collective
    #: ("nccl:*") kernels to "comm".  Defaults to "" so records built by
    #: older call sites stay valid.
    phase: str = ""


class Profiler:
    """Collects :class:`KernelRecord` objects when enabled.

    Recording is off by default so long training runs do not accumulate
    unbounded lists; benches enable it around the single step they want to
    dissect (mirroring how the paper profiles one training batch).
    """

    def __init__(self) -> None:
        self.enabled: bool = False
        self.records: List[KernelRecord] = []

    def record(self, record: KernelRecord) -> None:
        if self.enabled:
            self.records.append(record)

    def clear(self) -> None:
        self.records.clear()

    # ------------------------------------------------------------------
    # aggregation used by the Fig. 3 bench
    # ------------------------------------------------------------------
    def total_time(self) -> float:
        """Sum of kernel durations."""
        return sum(r.duration for r in self.records)
