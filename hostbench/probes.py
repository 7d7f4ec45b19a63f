"""Per-kernel probes and deterministic proxies (traced run only).

The micro-probes call the functions ``repro.tensor`` exports directly, on
the workload's first real batch, and report the *minimum* of
``PROBE_REPEATS`` calls: the cost of the kernel itself, which host noise
can only add to.  The proxies re-run one lap under ``cProfile`` (call
counts repeat exactly and so can back a count claim; the times under a
profiler cannot) and one under ``tracemalloc``.
"""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import tensor as T
from repro.device import Device, use_device

PROBE_REPEATS = 20
HIDDEN = 64
HEADS = 4

#: Builtins whose call counts later issues may want to claim against,
#: keyed by how cProfile names them.
PROFILED_BUILTINS = {
    "np.ufunc_at": "<method 'at' of 'numpy.ufunc' objects>",
    "np.reduceat": "<method 'reduceat' of 'numpy.ufunc' objects>",
    "scipy.csr_matvecs": "csr_matvecs",
}


def _merge(graphs: Sequence) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate graphs into one disconnected graph: x, edge_index, graph offsets."""
    counts = np.array([g.num_nodes for g in graphs], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    x = np.concatenate([g.x for g in graphs], axis=0)
    edge_index = np.concatenate([g.edge_index + off for g, off in zip(graphs, offsets)], axis=1)
    return x, edge_index, offsets


def _time_op(op: Callable, arrays: Sequence[np.ndarray]) -> Tuple[float, float]:
    """(forward, backward) microseconds: min over ``PROBE_REPEATS`` fresh tapes."""
    forward, backward = [], []
    for _ in range(PROBE_REPEATS):
        inputs = [T.Tensor(a, requires_grad=True) for a in arrays]
        start = perf_counter()
        out = op(*inputs)
        forward.append(perf_counter() - start)
        grad = np.ones(out.shape, dtype=np.float32)
        start = perf_counter()
        out.backward(grad)
        backward.append(perf_counter() - start)
    return min(forward) * 1e6, min(backward) * 1e6


def tensor_probes(graphs: Sequence) -> Dict[str, float]:
    """``tensor.<kernel>.fwd_us`` / ``.bwd_us`` and ``tensor.dispatch_us``."""
    x, edge_index, offsets = _merge(graphs)
    src, dst = edge_index
    n, e = len(x), edge_index.shape[1]
    rng = np.random.default_rng(0)
    h = rng.standard_normal((n, HIDDEN), dtype=np.float32)
    messages = rng.standard_normal((e, HIDDEN), dtype=np.float32)
    logits = rng.standard_normal((e, HEADS), dtype=np.float32)
    weight = rng.standard_normal((x.shape[1], HIDDEN), dtype=np.float32)
    one = np.ones(1, dtype=np.float32)

    out: Dict[str, float] = {}
    with use_device(Device()):
        csr = T.CSRGraph.from_edge_index(src, dst, n, n)
        features = T.Tensor(x)
        probes: List[Tuple[str, Callable, Sequence[np.ndarray]]] = [
            ("scatter_sum", lambda m: T.scatter_sum(m, dst, n), [messages]),
            ("scatter_max", lambda m: T.scatter_max(m, dst, n), [messages]),
            ("index_rows", lambda t: T.index_rows(t, src), [h]),
            ("gspmm_sum", lambda t: T.gspmm(csr, t, reduce="sum"), [h]),
            ("gspmm_max", lambda t: T.gspmm(csr, t, reduce="max"), [h]),
            ("gsddmm_dot", lambda a, b: T.gsddmm_dot(csr, a, b), [h, h]),
            ("edge_softmax", lambda l: T.edge_softmax(csr, l), [logits]),
            ("segment_sum", lambda t: T.segment_sum(t, offsets), [h]),
            ("matmul", lambda w: T.matmul(features, w), [weight]),
        ]
        for name, op, arrays in probes:
            fwd, bwd = _time_op(op, arrays)
            out[f"tensor.{name}.fwd_us"] = fwd
            out[f"tensor.{name}.bwd_us"] = bwd
        # add on 1-element tensors does no arithmetic worth the name:
        # what is left is building and walking the tape.
        out["tensor.dispatch_us"] = sum(_time_op(T.add, [one, one]))
    return out


def profiled_lap(lap: Callable[[], object]) -> Dict[str, float]:
    """Exact call counts (and ``ufunc.at``'s own time) from one lap under cProfile."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        lap()
    finally:
        profiler.disable()
    rows = pstats.Stats(profiler).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)
    out: Dict[str, float] = {"py.calls": sum(row[1] for row in rows.values())}
    for label, needle in PROFILED_BUILTINS.items():
        hits = [row for (_, _, name), row in rows.items() if needle in name]
        out[f"{label}.calls"] = sum(row[1] for row in hits)
        if label == "np.ufunc_at":
            out["np.ufunc_at.s"] = sum(row[2] for row in hits)
    return out


def tracemalloc_peak_mb(lap: Callable[[], object]) -> float:
    tracemalloc.start()
    try:
        lap()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
