"""Uniform draws a block at a time.

``rng.random(shape)`` asks the allocator for eight bytes per element before
the caller thresholds them into a four-byte mask, and with the heap pinned
at its high-water mark (``repro.device.memory``) the largest single request
is what a process keeps.  Here because ``repro.tensor`` (dropout) and
``repro.datasets`` (bag-of-words features) both need it and neither imports
the other.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

#: Doubles drawn per request (4 MiB).  Fastest of 2**13 .. 2**19 on a Cora
#: sized draw; above it the request itself starts to show in resident memory.
BLOCK = 1 << 19


def random_blocks(rng: np.random.Generator, size: int) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield ``(start, stop, u)`` with ``u`` equal to ``rng.random(size)[start:stop]``.

    Consecutive ``rng.random(out=...)`` calls read consecutive doubles of the
    bit stream, so the blocks concatenate to the one-shot draw and leave the
    generator where it would have left it.  ``u`` is one reused buffer:
    consume it before asking for the next block.
    """
    buffer = np.empty(min(size, BLOCK))
    for start in range(0, size, BLOCK):
        stop = min(start + BLOCK, size)
        block = buffer[: stop - start]
        rng.random(out=block)
        yield start, stop, block
