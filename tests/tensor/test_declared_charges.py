"""Oracle for declared outputs: charged as the dense arrays they stand for, for as long.

``ops.dropout`` and ``ops.mul``'s row scaling return a ``DeclaredTensor`` for
a declared input: the output's CSR and shape, with the dense array built
only when ``.data`` is read.  The pool must not notice.  Each scenario runs
once on a declared input and once on a writable, undeclared copy, and both
runs must record the same pool ``current`` at every launch and at every
probe between launches, the same allocations, the same peak and the same
final ``current``.  A holder of the charge is the output tensor, a backward
closure that saved it, or a dense array read from it.
"""

import numpy as np
import pytest

from repro.device import Device, use_device
from repro.tensor import Tensor, declare_sparse, ops
from repro.tensor._declared import DeclaredTensor, sparse_rows

SHAPE = (300, 200)
DENSE_BYTES = 4 * SHAPE[0] * SHAPE[1]
_RNG = np.random.default_rng(3)
WEIGHT = _RNG.standard_normal((SHAPE[1], 16)).astype(np.float32)
GRAD = _RNG.standard_normal((SHAPE[0], 16)).astype(np.float32)
COLUMN = _RNG.uniform(0.5, 2.0, (SHAPE[0], 1)).astype(np.float32)

#: The ops whose output on a declared input is a ``DeclaredTensor``.
OPS = {
    "dropout": lambda x: ops.dropout(x, 0.5, True, np.random.default_rng(7)),
    "row_scaling": lambda x: ops.mul(x, Tensor(COLUMN.copy())),
}


def _features(declared: bool) -> np.ndarray:
    rng = np.random.default_rng(0)
    x = (rng.random(SHAPE) < 0.05).astype(np.float32)
    x *= rng.uniform(0.5, 2.0, SHAPE).astype(np.float32)
    if declared:
        declare_sparse(x)
    return x


def _through_matmul_backward(x, op, probe):
    """(a) The output feeds a matmul whose closure saves it until backward has run."""
    weight = Tensor(WEIGHT.copy(), requires_grad=True)
    out = ops.matmul(op(x), weight)
    probe()
    out.backward(GRAD)
    probe()


def _read_once_then_dropped(x, op, probe):
    """(b) One ``.data`` read that nothing keeps, then the tensor goes."""
    out = op(x)
    probe()
    out.data.sum()
    probe()
    del out
    probe()


def _data_outlives_tensor_and_tape(x, op, probe):
    """(c) The dense array read from the output outlives the tensor and the tape."""
    weight = Tensor(WEIGHT.copy(), requires_grad=True)
    out = op(x)
    product = ops.matmul(out, weight)
    data = out.data
    del out
    product.backward(GRAD)
    del product
    probe()
    del data
    probe()


def _wrapped_again(x, op, probe):
    """(d) ``Tensor(out.data)``, a detached leaf over the same array: no second charge."""
    out = op(x)
    leaf = Tensor(out.data)
    probe()
    del out
    probe()
    del leaf
    probe()


def _reshaped(x, op, probe):
    """(d) A reshape is a view, charged again, that holds its base.

    Left as it is until ROADMAP's "Re-record once, on purpose" stops charging views.
    """
    out = op(x)
    flat = out.reshape(-1)
    probe()
    del out
    probe()
    del flat
    probe()


SCENARIOS = {
    "matmul_backward": _through_matmul_backward,
    "read_once_then_dropped": _read_once_then_dropped,
    "data_outlives_tensor_and_tape": _data_outlives_tensor_and_tape,
    "wrapped_again": _wrapped_again,
    "reshaped": _reshaped,
}


def _timeline(declared: bool, scenario, op, precision: str = "fp32"):
    """Everything the pool saw while ``scenario`` ran on declared or undeclared features."""
    device = Device(precision=precision)
    device.profiler.enabled = True
    pool = device.memory
    allocs, probes = [], []
    alloc = pool.alloc
    pool.alloc = lambda nbytes: (allocs.append(nbytes), alloc(nbytes))[1]
    with use_device(device):
        features = Tensor(_features(declared))
        start = pool.current
        scenario(features, op, lambda: probes.append(pool.current))
        end = pool.current
    return {
        "launches": [(r.name, r.memory) for r in device.profiler.records],
        "probes": probes,
        "allocs": allocs,
        "peak": pool.peak,
        "start": start,
        "end": end,
    }


@pytest.mark.parametrize("precision", ["fp32", "fp16"])
@pytest.mark.parametrize("scenario", SCENARIOS.values(), ids=SCENARIOS)
@pytest.mark.parametrize("op", OPS.values(), ids=OPS)
def test_the_pool_sees_the_undeclared_copy(fresh_device, op, scenario, precision):
    declared = _timeline(True, scenario, op, precision)
    assert declared == _timeline(False, scenario, op, precision)
    assert declared["end"] == declared["start"]


@pytest.mark.parametrize("op", OPS.values(), ids=OPS)
def test_a_kept_dense_array_holds_the_charge_until_it_dies(fresh_device, op):
    probes = _timeline(True, _data_outlives_tensor_and_tape, op)["probes"]
    assert probes[0] - probes[1] == DENSE_BYTES


@pytest.mark.parametrize("op", OPS.values(), ids=OPS)
def test_a_reshaped_view_is_charged_again(fresh_device, op):
    probes = _timeline(True, _reshaped, op)["probes"]
    assert probes[0] == probes[1], "the view keeps the array it was read from"
    assert probes[1] - probes[2] == 2 * DENSE_BYTES


@pytest.mark.parametrize("name", OPS)
def test_data_is_the_dense_path_built_once_and_the_accessors_never_build_it(fresh_device, name):
    out = OPS[name](Tensor(_features(True)))
    dense = OPS[name](Tensor(_features(False)))
    assert type(out) is DeclaredTensor and type(dense) is Tensor
    assert (out.shape, out.ndim, len(out), out.size, out.nbytes) == (
        dense.shape, dense.ndim, len(dense), dense.size, dense.nbytes
    )
    assert out._dense is None, "a shape accessor built the dense array"
    data = out.data
    assert out.data is data
    assert np.array_equal(data.view(np.uint32), dense.data.view(np.uint32))
    assert sparse_rows(data) is out.rows and not data.flags.writeable


def test_an_undeclared_input_returns_a_plain_tensor(fresh_device):
    for op in OPS.values():
        assert type(op(Tensor(_features(False)))) is Tensor
