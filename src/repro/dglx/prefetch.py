"""Pipelined prefetching wrapper for the DGL-style :class:`GraphDataLoader`.

DGL's ``GraphDataLoader`` inherits PyTorch's worker/pinned-memory pipeline,
so its per-type heterograph collation — the dominant loading cost the paper
measures for DGL (Fig. 1/2) — can hide behind kernel execution.  This
wrapper reproduces that on the simulated clock via
:class:`repro.device.prefetch.PrefetchLoader`; the ``(graph, labels)``
batches themselves are identical to the wrapped loader's.
"""

from __future__ import annotations

from repro.device.prefetch import PrefetchLoader


class PrefetchDataLoader(PrefetchLoader):
    """A :class:`~repro.dglx.loader.GraphDataLoader` with pipelined collation.

    Wraps an already-constructed loader::

        loader = PrefetchDataLoader(GraphDataLoader(graphs, batch_size=16))
    """
