"""Dynamic micro-batching under a node budget.

The paper's central performance result is that small-graph workloads are
launch-bound: batching many graphs into one big disconnected graph nearly
halves forward+backward time per doubling of batch size (Figs. 1-2), while
the per-batch collation cost barely grows.  The same economics hold at
inference time, so the serving layer coalesces whatever is queued into one
micro-batch per dispatch — bounded by a node budget so one batch of
large graphs cannot blow the latency (or memory) of everything queued
behind it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.serve.queue import RequestQueue
from repro.serve.request import InferenceRequest


class DynamicBatcher:
    """Greedy FIFO coalescing with batch-size / node budgets.

    ``max_batch_size=1`` degenerates to request-at-a-time serving, which is
    the baseline the serving benchmark compares against.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        max_nodes: Optional[int] = None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive when set")
        self.max_batch_size = max_batch_size
        self.max_nodes = max_nodes

    def _fits(self, nodes: int, taken: int) -> bool:
        if taken >= self.max_batch_size:
            return False
        return self.max_nodes is None or nodes <= self.max_nodes

    @staticmethod
    def split(batch: List[InferenceRequest]) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
        """Halve a batch that proved too big to serve (OOM degradation).

        FIFO order is preserved across the two halves; the caller serves
        the first half, then the second, instead of dropping anything.
        """
        if len(batch) < 2:
            raise ValueError("cannot split a batch of fewer than two requests")
        mid = (len(batch) + 1) // 2
        return list(batch[:mid]), list(batch[mid:])

    def next_batch(
        self, queue: RequestQueue, now: float
    ) -> Tuple[List[InferenceRequest], List[InferenceRequest]]:
        """Pop one micro-batch; returns ``(batch, expired)``.

        Queue order is preserved (FIFO within a priority lane).  Requests
        whose deadline lapsed while queued are popped and returned in
        ``expired`` for the caller to count as shed.  The head request is
        always taken even if it alone exceeds the node budget — a
        single over-budget graph must still be served, just unaccompanied.
        """
        batch: List[InferenceRequest] = []
        expired: List[InferenceRequest] = []
        nodes = 0
        while len(queue) > 0:
            head = queue.peek()
            if head.expired(now):
                expired.append(queue.pop())
                continue
            if batch and not self._fits(nodes + head.num_nodes, len(batch)):
                break
            batch.append(queue.pop())
            nodes += batch[-1].num_nodes
        return batch, expired
