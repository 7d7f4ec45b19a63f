"""A pipelined, prefetching wrapper around any batch loader.

The paper's Section IV-D observes that serial CPU-side batching leaves the
GPU idle and that "further improvement can be achieved by overlapping CPU
runtime or data communication with GPU execution".  :class:`PrefetchLoader`
is that overlap, executed on the simulated clock rather than projected:

* collation for batch *i+1* runs on a host **worker stream**
  (``device.offload``), so its cost lands on the worker's timeline while
  the main thread trains on batch *i*;
* the H2D copy of each collated batch is enqueued on a **copy stream**,
  sequenced after the collation that produced it — the classic
  double-buffered ``pin_memory`` + ``cudaMemcpyAsync`` pattern;
* the consumer blocks on a per-batch ready :class:`~repro.device.streams.Event`
  under the ``data_loading`` phase, so only the *un-hidden* residue of
  loading shows up in the Fig. 1/2 breakdown.

The wrapper is framework-agnostic: both the ``pygx`` and ``dglx`` loaders
charge their collation and transfer costs through ``device.host`` /
``device.transfer``, which is exactly what ``offload`` redirects.  Batches
themselves are ordinary Python objects, so numerics are bitwise-identical
to iterating the inner loader directly — only the time accounting changes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterator

from repro.device.core import current_device
from repro.device.streams import Event

#: Stream names used by every prefetching loader on a device.  Reusing
#: fixed names keeps one worker/copy timeline per device (get-or-create in
#: :meth:`Device.stream`), matching a real DataLoader's persistent workers.
WORKER_STREAM = "prefetch"
COPY_STREAM = "h2d"


class PrefetchLoader:
    """Iterate ``inner`` with ``depth`` batches collated ahead of use.

    ``depth=2`` is double buffering: while the consumer trains on batch
    *i*, batch *i+1* is already collated and its H2D copy in flight, and
    batch *i+2* starts collating the moment *i* is dequeued.
    """

    def __init__(self, inner: Any, depth: int = 2) -> None:
        if depth < 1:
            raise ValueError(f"prefetch depth must be >= 1, got {depth!r}")
        self.inner = inner
        self.depth = depth

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self) -> Iterator[Any]:
        device = current_device()
        worker = device.stream(WORKER_STREAM)
        copy = device.stream(COPY_STREAM)
        source = iter(self.inner)
        queue: deque = deque()

        def pump() -> bool:
            """Collate one batch on the worker; False when exhausted."""
            with device.offload(worker, copy_stream=copy):
                try:
                    item = next(source)
                except StopIteration:
                    return False
            # The batch is usable once both its collation and its H2D
            # copy have landed.
            ready = Event(timestamp=max(worker.ready, copy.ready))
            queue.append((item, ready))
            return True

        for _ in range(self.depth):
            if not pump():
                break
        while queue:
            item, ready = queue.popleft()
            pump()  # refill the freed buffer before blocking
            with device.clock.phase("data_loading"):
                device.wait_event(ready)
            yield item

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r}, depth={self.depth})"
