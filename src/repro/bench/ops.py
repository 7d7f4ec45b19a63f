"""repro.bench.ops — operation-level microbenchmarks with roofline attribution.

The "magnifying glass" harness of the op-level benchmarking literature
(Magnifying Glass, arXiv 2211.03021; Operation-Level Performance
Benchmarking, arXiv 2207.09955), applied to this reproduction: time the
individual kernels GNN frameworks are built from — GSpMM, GSDDMM
(attention logits), scatter/segment reduce, dense GEMM, elementwise
chains, H2D copies — across a grid of graph shapes (the paper's five
datasets plus ``repro.scale``-style R-MAT synthetics), on both framework
packs, eager and compiled, in fp32 and the device's fp16 roofline mode
(halved tensor bytes; see ``docs/kernels.md``).  For each cell the
harness computes arithmetic intensity and achieved vs. roofline
FLOP/bandwidth from the device cost model and classifies the op as
launch-, bandwidth- or compute-bound (:mod:`repro.device.roofline`).

Everything runs on the simulated clock, so every number — including the
classification — is exactly deterministic; CI gates wall clock *and*
classification against the committed ``BENCH_ops.json`` baseline.

CLI (the ``ops`` record of :mod:`repro.bench.experiments`)::

    python -m repro.bench.report ops
    python -m repro.bench.report ops --shapes cora rmat-32k --frameworks pygx
    python -m repro.bench.report ops --ops sddmm gspmm --precisions fp16
    python -m repro.bench.report ops --ops gspmm gemm --modes eager --json out.json
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.tables import format_table, render_table
from repro.compile import CompiledStep
from repro.device import (
    Device,
    classify_records,
    classify_transfer,
    current_device,
    use_device,
)
from repro.graph.generators import rmat_edges
from repro.packs import FRAMEWORKS
from repro.tensor import (
    CSRGraph,
    Tensor,
    gsddmm_dot,
    gspmm,
    index_rows,
    matmul,
    ops as tops,
    scatter_sum,
    segment_sum,
)

OPS = ("gspmm", "sddmm", "scatter_reduce", "gemm", "elementwise", "h2d")
PACKS = FRAMEWORKS
MODES = ("eager", "compiled")
PRECISIONS = ("fp32", "fp16")


@dataclass(frozen=True)
class OpShape:
    """One point of the shape grid: a graph size plus a feature width."""

    name: str
    n_nodes: int
    n_edges: int
    feat_dim: int
    #: "uniform" draws iid endpoints (the paper's dataset stand-ins);
    #: "rmat" uses the power-law generator behind ``repro.scale``.
    generator: str = "uniform"


#: The paper's five datasets, as (node, edge, feature) shapes.  Graph
#: classification datasets appear as one 128-graph training batch (the
#: batch is what the device sees per step); edges count both directions.
PAPER_SHAPES = (
    OpShape("cora", 2708, 10858, 1433),
    OpShape("pubmed", 19717, 88676, 500),
    OpShape("enzymes-b128", 3977, 15618, 18),
    OpShape("mnist-b128", 9138, 149220, 1),
    OpShape("dd-b128", 35723, 183590, 89),
)

#: R-MAT synthetics from the ``repro.scale`` generator family: the
#: million-node tail the paper's datasets lack, at degree 8.
SYNTH_SHAPES = (
    OpShape("rmat-4k", 4096, 32768, 64, generator="rmat"),
    OpShape("rmat-32k", 32768, 262144, 64, generator="rmat"),
    OpShape("rmat-131k", 131072, 1048576, 64, generator="rmat"),
)

SHAPES: Dict[str, OpShape] = {s.name: s for s in PAPER_SHAPES + SYNTH_SHAPES}


def _shape_rng(shape: OpShape) -> np.random.Generator:
    """Deterministic per-shape RNG (stable across runs and processes)."""
    return np.random.default_rng(zlib.crc32(shape.name.encode()))


def _edge_index(shape: OpShape) -> np.ndarray:
    rng = _shape_rng(shape)
    if shape.generator == "rmat":
        src, dst = rmat_edges(shape.n_nodes, shape.n_edges, rng)
    else:
        src = rng.integers(0, shape.n_nodes, size=shape.n_edges, dtype=np.int64)
        dst = rng.integers(0, shape.n_nodes, size=shape.n_edges, dtype=np.int64)
    return np.stack([np.asarray(src, np.int64), np.asarray(dst, np.int64)])


def _features(shape: OpShape) -> np.ndarray:
    rng = _shape_rng(shape)
    return rng.normal(0.0, 1.0, size=(shape.n_nodes, shape.feat_dim)).astype(np.float32)


# ----------------------------------------------------------------------
# op implementations, dispatched per framework pack
# ----------------------------------------------------------------------
def _build(op: str, shape: OpShape, pack: str):
    """Build (fn, args) for one cell; construction is untimed.

    Each pack runs its own lowering: DGL's fused kernels from
    :mod:`repro.tensor`, PyG's compositions of gathers and scatters over the
    same ``index_rows`` / ``scatter_sum`` its message passing launches.
    """
    x = Tensor(_features(shape))

    if op == "gspmm":
        edge_index = _edge_index(shape)
        if pack == "dglx":
            graph = CSRGraph.from_edge_index(
                edge_index[0], edge_index[1], shape.n_nodes, shape.n_nodes
            )
            return gspmm, (graph, x)

        # Two launches, not one fused GSpMM: a gather materialises the (E, D)
        # per-edge messages, then a scatter_add reduces them onto destinations
        # -- more launches and more edge-level traffic, the gap Section IV-C
        # attributes.
        def spmm(edge_index: np.ndarray, x: Tensor, num_nodes: int) -> Tensor:
            return scatter_sum(index_rows(x, edge_index[0]), edge_index[1], num_nodes)

        return spmm, (edge_index, x, shape.n_nodes)

    if op == "sddmm":
        # The attention-logit kernel (Magnifying Glass's SDDMM shape):
        # per-edge dot of source/destination rows.  DGL lowers it to one
        # fused GSDDMM launch; PyG composes gather -> gather -> mul -> sum.
        edge_index = _edge_index(shape)
        if pack == "dglx":
            graph = CSRGraph.from_edge_index(
                edge_index[0], edge_index[1], shape.n_nodes, shape.n_nodes
            )
            return gsddmm_dot, (graph, x, x)

        # Both (E, D) endpoint tensors are materialised before the multiply
        # and the reduction run as kernels of their own: 2 x E rows of traffic.
        def sddmm(edge_index: np.ndarray, u: Tensor, v: Tensor) -> Tensor:
            return tops.mul(index_rows(u, edge_index[0]), index_rows(v, edge_index[1])).sum(axis=-1)

        return sddmm, (edge_index, x, x)

    if op == "scatter_reduce":
        # Pool edge-sized rows into node bins: PyG scatters by an index
        # vector, DGL segment-reduces contiguous ranges — same reduction,
        # the two pooling paths of Section IV-C.
        sizes = np.bincount(
            _shape_rng(shape).integers(0, shape.n_nodes, size=shape.n_edges),
            minlength=shape.n_nodes,
        )
        rows = Tensor(
            _shape_rng(shape)
            .normal(0.0, 1.0, size=(shape.n_edges, shape.feat_dim))
            .astype(np.float32)
        )
        if pack == "dglx":
            offsets = np.concatenate([[0], np.cumsum(sizes)])
            return segment_sum, (rows, offsets)
        index = np.repeat(np.arange(shape.n_nodes, dtype=np.int64), sizes)
        return scatter_sum, (rows, index, shape.n_nodes)

    if op == "gemm":
        # The per-layer dense update: (N, D) @ (D, H) at the model's
        # hidden width, identical lowering in both packs.
        hidden = max(shape.feat_dim, 16)
        w = Tensor(
            _shape_rng(shape).normal(0.0, 1.0, size=(shape.feat_dim, hidden)).astype(np.float32)
        )
        return matmul, (x, w)

    if op == "elementwise":
        # The unfused bias → scale → relu → residual chain GAT/GatedGCN
        # edge updates issue eagerly: four launches, one after fusion.
        bias = Tensor(_shape_rng(shape).normal(size=(1, shape.feat_dim)).astype(np.float32))
        scale = Tensor(np.full((1, shape.feat_dim), 0.5, dtype=np.float32))

        def chain(x: Tensor, bias: Tensor, scale: Tensor) -> Tensor:
            t = tops.add(x, bias)
            t = tops.mul(t, scale)
            t = tops.relu(t)
            return tops.add(t, x)

        return chain, (x, bias, scale)

    if op == "h2d":
        nbytes = float(x.data.nbytes)

        def copy() -> None:
            current_device().transfer(nbytes)

        return copy, ()

    raise ValueError(f"unknown op {op!r}; options: {OPS}")


def run_cell(
    op: str, shape: OpShape, pack: str, mode: str = "eager",
    precision: str = "fp32",
) -> Dict:
    """Benchmark one (op, shape, pack, mode, precision) cell on a fresh device.

    Returns a plain dict (the ``BENCH_ops.json`` cell schema).  The op
    runs once untimed (building lazy state; for compiled mode this is
    the capture step), then once under the profiler on a reset clock.
    ``precision="fp16"`` runs the device's fp16 roofline mode: identical
    numerics, halved tensor bytes, so bandwidth-bound cells speed up ~2×
    while launch-bound cells are unchanged.
    """
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}; options: {OPS}")
    if pack not in PACKS:
        raise ValueError(f"unknown pack {pack!r}; options: {PACKS}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; options: {MODES}")
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; options: {PRECISIONS}")
    if op == "h2d" and mode == "compiled":
        raise ValueError("h2d copies have no compiled mode")

    device = Device(precision=precision)
    with use_device(device):
        fn, args = _build(op, shape, pack)
        if mode == "compiled":
            fn = CompiledStep(fn)
        fn(*args)  # warmup / capture, untimed
        device.reset()
        device.profiler.enabled = True
        fn(*args)
        device.profiler.enabled = False
        wall = device.clock.elapsed
        records = list(device.profiler.records)

    spec = device.spec
    launches = len(records)
    flops = sum(r.flops for r in records)
    nbytes = sum(r.bytes_moved for r in records)
    device_time = sum(r.duration for r in records)
    if op == "h2d":
        bound = classify_transfer(spec, nbytes)
    else:
        bound = classify_records(spec, records)
    return {
        "op": op,
        "pack": pack,
        "mode": mode,
        "precision": precision,
        "shape": shape.name,
        "n_nodes": shape.n_nodes,
        "n_edges": shape.n_edges,
        "feat_dim": shape.feat_dim,
        "launches": launches,
        "flops": flops,
        "bytes": nbytes,
        "device_time": device_time,
        "wall_time": wall,
        "intensity": flops / nbytes if nbytes else 0.0,
        "bound": bound,
        "frac_peak_flops": (flops / wall) / spec.peak_flops if wall else 0.0,
        "frac_peak_bandwidth": (nbytes / wall) / spec.mem_bandwidth if wall else 0.0,
    }


def ops_grid(
    shapes: Optional[Sequence[str]] = None,
    ops: Optional[Sequence[str]] = None,
    packs: Optional[Sequence[str]] = None,
    modes: Optional[Sequence[str]] = None,
    precisions: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Run the full benchmark grid; one dict per cell, grid order.

    The fp16 axis defaults to the eager cells only: compiled replay
    charges the same (scaled) bytes as eager, so fp16×compiled adds grid
    time without new attribution.  Pass ``precisions`` explicitly to
    force any combination.
    """
    cells = []
    for shape_name in shapes or sorted(SHAPES):
        shape = SHAPES[shape_name]
        for op in ops or OPS:
            for pack in packs or PACKS:
                for mode in modes or MODES:
                    if op == "h2d" and mode == "compiled":
                        continue
                    for precision in precisions or PRECISIONS:
                        if (
                            precisions is None
                            and precision == "fp16"
                            and mode == "compiled"
                        ):
                            continue
                        cells.append(run_cell(op, shape, pack, mode, precision))
    return cells


def ops_document(cells: Sequence[Dict]) -> Dict:
    """Wrap cells in the ``BENCH_ops.json`` document shape."""
    from repro.device.gpu import RTX_2080TI

    return {
        "experiment": "ops",
        "device": {
            "name": RTX_2080TI.name,
            "peak_flops": RTX_2080TI.peak_flops,
            "mem_bandwidth": RTX_2080TI.mem_bandwidth,
            "ridge_point": RTX_2080TI.ridge_point,
        },
        "cells": list(cells),
    }


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------
#: The per-cell attribution table.
OPS_TABLE = [
    ("op", lambda c: c["op"]),
    ("pack", lambda c: c["pack"]),
    ("mode", lambda c: c["mode"]),
    ("prec", lambda c: c.get("precision", "fp32")),
    ("shape", lambda c: c["shape"]),
    ("launch#", lambda c: c["launches"]),
    ("MFLOP", lambda c: f"{c['flops'] / 1e6:.2f}"),
    ("MB", lambda c: f"{c['bytes'] / 1e6:.2f}"),
    ("AI", lambda c: f"{c['intensity']:.2f}"),
    ("wall(us)", lambda c: f"{c['wall_time'] * 1e6:.1f}"),
    ("%peakF", lambda c: f"{c['frac_peak_flops'] * 100:.2f}"),
    ("%peakBW", lambda c: f"{c['frac_peak_bandwidth'] * 100:.2f}"),
    ("bound", lambda c: c["bound"]),
]


def bound_summary(cells: Iterable[Dict]) -> Dict[Tuple[str, str], Dict[str, int]]:
    """Per (op, pack): cell count in each bound class."""
    out: Dict[Tuple[str, str], Dict[str, int]] = {}
    for cell in cells:
        key = (cell["op"], cell["pack"])
        hist = out.setdefault(key, {"launch": 0, "bandwidth": 0, "compute": 0})
        hist[cell["bound"]] += 1
    return out


def ops_report(cells: Sequence[Dict]) -> str:
    """The bottleneck-attribution report: per-cell table + summary."""
    table = render_table(
        OPS_TABLE,
        cells,
        title="repro.bench.ops: operation roofline attribution "
              "(simulated RTX 2080 Ti)",
    )
    rows = [
        [op, pack, str(h["launch"]), str(h["bandwidth"]), str(h["compute"])]
        for (op, pack), h in sorted(bound_summary(cells).items())
    ]
    summary = format_table(
        ["op", "pack", "launch-bound", "bandwidth-bound", "compute-bound"],
        rows,
        title="Bottleneck summary (cells per bound class)",
    )
    return table + "\n" + summary
