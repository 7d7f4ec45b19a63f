"""Batch-caching loader — the optimisation the paper calls for.

The paper's conclusion: "More efficient graph batching strategies will
greatly speed up GNN training."  For full-dataset epochs with a fixed batch
partition, the collated big graphs never change, so they can be built once
and replayed — trading the per-epoch CPU collation cost for keeping every
collated batch resident on the device.

:class:`CachedDataLoader` does exactly that: the first epoch pays the
normal PyG-style collation cost; later epochs only pay the per-batch fetch
bookkeeping.  The batch partition is fixed (re-shuffling would invalidate
the cache), which is the standard trade made by caching loaders.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.device import current_device
from repro.graph import GraphSample, as_generator
from repro.graph.graph import RngLike
from repro.loader import GraphLoader, loading
from repro.pygx.data import Batch
from repro.pygx.loader import collate


class CachedDataLoader(GraphLoader):
    """Collate once, replay every epoch (fixed batch partition).

    The cache is committed only after a complete pass: a first pass that
    is abandoned partway is collated again by the next iteration instead
    of becoming every later epoch.
    """

    def __init__(
        self,
        graphs: Sequence[GraphSample],
        batch_size: int,
        rng: RngLike = None,
    ) -> None:
        rng = as_generator(rng)
        order = rng.permutation(len(graphs))
        super().__init__([graphs[i] for i in order], batch_size, rng=rng)
        self._cache: List[Batch] = []

    def __iter__(self) -> Iterator[Batch]:
        if not self._cache:
            filled = []
            for batch in self._epoch(collate):
                filled.append(batch)
                yield batch
            self._cache = filled
            return
        device = current_device()
        for batch in self._cache:
            with loading(device, 1):
                pass  # replay: only the per-batch fetch bookkeeping remains
            yield batch
