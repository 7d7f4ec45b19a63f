"""Pipelined prefetching wrapper for the PyG-style :class:`DataLoader`.

PyTorch's real ``DataLoader(num_workers>0, pin_memory=True)`` collates the
next batch in worker processes and copies it with ``cudaMemcpyAsync`` while
the current batch trains; this wrapper reproduces that pipeline on the
simulated clock via :class:`repro.device.prefetch.PrefetchLoader`.  Batches
and their numerics are identical to iterating the wrapped loader directly —
only where the collation/transfer time *lands* changes.
"""

from __future__ import annotations

from repro.device.prefetch import PrefetchLoader


class PrefetchDataLoader(PrefetchLoader):
    """A :class:`~repro.pygx.loader.DataLoader` with pipelined collation.

    Wraps an already-constructed loader so all batching knobs (batch size,
    shuffle rng, sharding) stay in one place::

        loader = PrefetchDataLoader(DataLoader(graphs, batch_size=16))
    """
