"""Oracle for ``repro._random.random_at``: PCG64 jumped straight to the uniforms dropout reads.

``random_at(rng, PCG64Jumps(n_rows, n_cols), positions)`` must be
``rng.random(n_rows * n_cols)[positions]`` bit for bit and leave the
generator's whole state (a buffered ``uint32`` included) where that draw
leaves it.  It mirrors numpy's PCG64 arithmetic, so every failure names the
numpy it ran on.  The cases are the ones that break a jump: empty rows,
nothing drawn, only the last position, one column, one row, and enough
positions for several chunks ending in a partial one.  A declared input
under any other bit generator takes dropout's dense path.
"""

import numpy as np
import pytest

from repro._random import CHUNK, PCG64Jumps, random_at
from repro.tensor import Tensor, declare_sparse, ops
from repro.tensor._declared import sparse_rows

NUMPY = f"numpy {np.__version__}"


def _stored(shape, density, seed, empty_rows=()):
    x = np.random.default_rng(seed).random(shape) < density
    x[list(empty_rows)] = False
    return x


def _last_position_only():
    x = np.zeros((7, 5), bool)
    x[-1, -1] = True
    return x


#: ``name -> boolean array`` whose true elements are the positions read.
CASES = {
    "bag_of_words": _stored((60, 45), 0.1, 1),
    "empty_rows": _stored((30, 20), 0.3, 2, empty_rows=(0, 11, 12, 29)),
    "nothing_stored": np.zeros((12, 9), bool),
    "last_position_only": _last_position_only(),
    "one_column": _stored((50, 1), 0.5, 3),
    "one_row": _stored((1, 300), 0.3, 4),
    "three_chunks": _stored((400, 250), 0.4, 5),
}
_three = np.count_nonzero(CASES["three_chunks"])
assert 2 * CHUNK < _three < 3 * CHUNK and _three % CHUNK


def _fresh(seed):
    return np.random.default_rng(seed)


def _partway(seed):
    rng = np.random.default_rng(seed)
    rng.random(1001)
    return rng


def _buffered_uint32(seed):
    rng = np.random.default_rng(seed)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    return rng


GENERATORS = {"fresh": _fresh, "partway": _partway, "buffered_uint32": _buffered_uint32}


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5])
@pytest.mark.parametrize("make", GENERATORS.values(), ids=GENERATORS)
@pytest.mark.parametrize("stored", CASES.values(), ids=CASES)
def test_random_at_is_the_full_draw_at_the_positions(stored, make, seed):
    positions = np.flatnonzero(stored)
    rng, oracle = make(seed), make(seed)
    got = random_at(rng, PCG64Jumps(*stored.shape), positions)
    want = oracle.random(stored.size)[positions]
    assert got.dtype == np.float64 and got.shape == positions.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"uniforms differ on {NUMPY}"
    assert rng.bit_generator.state == oracle.bit_generator.state, f"generator left elsewhere on {NUMPY}"
    # The buffered half-word is the next uint32 on both.
    assert rng.integers(0, 2**32, dtype=np.uint32) == oracle.integers(0, 2**32, dtype=np.uint32)


def _declared_and_copy(stored, seed):
    x = np.where(stored, np.random.default_rng(seed).uniform(0.5, 2.0, stored.shape), 0.0).astype(np.float32)
    copy = x.copy()
    declare_sparse(x)
    return x, copy


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9, np.nextafter(1.0, 0.0)])
@pytest.mark.parametrize("stored", CASES.values(), ids=CASES)
def test_dropout_on_the_jumped_draw_is_the_dense_path(fresh_device, stored, p):
    x, copy = _declared_and_copy(stored, 11)
    rng, dense_rng = _buffered_uint32(3), _buffered_uint32(3)
    out = ops.dropout(Tensor(x), p, True, rng)
    dense = ops.dropout(Tensor(copy), p, True, dense_rng)
    assert sparse_rows(out.data) is not None and sparse_rows(dense.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32)), f"dropout differs on {NUMPY}"
    assert rng.bit_generator.state == dense_rng.bit_generator.state, f"generator left elsewhere on {NUMPY}"


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.MT19937])
def test_other_bit_generators_take_the_dense_path(fresh_device, monkeypatch, bit_generator):
    def refuse(*args):
        raise AssertionError("random_at jumps only PCG64")

    monkeypatch.setattr(ops, "random_at", refuse)
    x, copy = _declared_and_copy(CASES["three_chunks"], 12)
    rng, dense_rng = np.random.Generator(bit_generator(9)), np.random.Generator(bit_generator(9))
    out = ops.dropout(Tensor(x), 0.5, True, rng)
    dense = ops.dropout(Tensor(copy), 0.5, True, dense_rng)
    assert sparse_rows(out.data) is None
    assert np.array_equal(out.data.view(np.uint32), dense.data.view(np.uint32))
    assert _same_state(rng.bit_generator.state, dense_rng.bit_generator.state)


def _same_state(a, b):
    """Equal generator states; these bit generators keep arrays in theirs."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)
