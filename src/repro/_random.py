"""Uniform draws a block at a time, or only at the positions that are read.

``rng.random(shape)`` asks the allocator for eight bytes per element before
the caller thresholds them into a four-byte mask, and with the heap pinned
at its high-water mark (``repro.device.memory``) the largest single request
is what a process keeps.  Here because ``repro.tensor`` (dropout) and
``repro.datasets`` (bag-of-words features) both need it and neither imports
the other.

:func:`random_at` skips the draws nobody reads.  numpy's ``PCG64`` is a
128-bit LCG, ``s -> M * s + inc (mod 2**128)``, and ``random()`` is
``(out >> 11) * 2**-53`` of the 64-bit output of the advanced state, so the
uniform at any stream position has a closed form.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

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


#: numpy's ``PCG_DEFAULT_MULTIPLIER_128``.
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_LOW32 = np.uint64(0xFFFFFFFF)

#: Positions jumped to at once.  Fastest of 2**12 .. 2**17 on Cora's draw:
#: the dozen ``uint64`` temporaries of a chunk stay in cache.
CHUNK = 1 << 14


def _halves(values: List[int]) -> Tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of 128-bit integers."""
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=np.uint64),
    )


def _mul_add(a, b, c) -> Tuple[np.ndarray, np.ndarray]:
    """``a * b + c (mod 2**128)`` on ``(high, low)`` word pairs.

    ``uint64`` products wrap mod ``2**64``, so only the high word of
    ``a_low * b_low`` needs 32-bit halves.
    """
    (ah, al), (bh, bl), (ch, cl) = a, b, c
    a0, a1, b0, b1 = al & _LOW32, al >> 32, bl & _LOW32, bl >> 32
    cross, high = a0 * b1, a1 * b0
    middle = (a0 * b0 >> 32) + (cross & _LOW32) + (high & _LOW32)
    high >>= 32
    high += a1 * b1
    high += cross >> 32
    high += middle >> 32
    high += ah * bl
    high += al * bh
    high += ch
    low = al * bl
    low += cl
    high += low < cl  # the carry out of the low word
    return high, low


def _powers(a: int, b: int, count: int) -> Tuple[List[int], List[int]]:
    """``(A_k, B_k)`` for ``k = 0 .. count``: ``s -> a * s + b * inc`` applied ``k`` times."""
    powers_a, powers_b = [1], [0]
    for _ in range(count):
        powers_a.append(powers_a[-1] * a & _MASK128)
        powers_b.append((powers_b[-1] * a + b) & _MASK128)
    return powers_a, powers_b


class PCG64Jumps:
    """Where ``PCG64`` stands at every element of an ``(n_rows, n_cols)`` draw.

    Advancing ``j`` steps from ``s`` gives ``A_j * s + B_j * inc``.  Element
    ``(r, c)`` is drawn from state ``r * n_cols + c + 1``, that is from
    ``cols[c]`` applied to ``rows[r]``, the state where row ``r`` starts;
    ``rows[n_rows]`` is where the whole draw leaves the generator.  The
    tables depend only on the shape, not on the generator.
    """

    __slots__ = ("n_cols", "cols", "rows")

    def __init__(self, n_rows: int, n_cols: int) -> None:
        self.n_cols = n_cols
        col_a, col_b = _powers(_MULTIPLIER, 1, n_cols)
        row_a, row_b = _powers(col_a[-1], col_b[-1], n_rows)
        self.cols = (_halves(col_a[1:]), _halves(col_b[1:]))
        self.rows = (_halves(row_a), _halves(row_b))


def random_at(rng: np.random.Generator, jumps: PCG64Jumps, positions: np.ndarray) -> np.ndarray:
    """``rng.random(size)[positions]`` for the draw ``jumps`` describes, drawing only those.

    ``rng`` must run on ``PCG64``.  ``positions`` are flat indices into the
    draw.  The generator is left where ``rng.random(size)`` leaves it: the
    state is written back whole, so a buffered ``uint32`` survives as it
    does there (``advance()`` would drop it).
    """
    state = rng.bit_generator.state
    s, inc = state["state"]["state"], state["state"]["inc"]
    (row_a, row_b), (col_a, col_b) = jumps.rows, jumps.cols
    zero = (np.uint64(0), np.uint64(0))
    # Per call: every row's starting state and every column's ``B * inc``.
    starts = _mul_add(row_b, _halves([inc]), zero)
    starts = _mul_add(row_a, _halves([s]), starts)
    offsets = _mul_add(col_b, _halves([inc]), zero)
    out = np.empty(len(positions))
    for lo in range(0, len(positions), CHUNK):
        row, col = np.divmod(positions[lo : lo + CHUNK], jumps.n_cols)
        high, low = _mul_add(
            (col_a[0][col], col_a[1][col]),
            (starts[0][row], starts[1][row]),
            (offsets[0][col], offsets[1][col]),
        )
        # PCG64's XSL-RR output: rotate ``high ^ low`` right by the top six bits.
        rotation = high >> 58
        low ^= high
        high = low >> rotation
        high |= low << (-rotation & 63)
        high >>= 11
        np.multiply(high, 2.0**-53, out=out[lo : lo + CHUNK])
    state["state"]["state"] = int(starts[0][-1]) << 64 | int(starts[1][-1])
    rng.bit_generator.state = state
    return out
