"""Per-graph sparse-format selection (COO vs CSR vs blocked-CSR).

Real GNN kernels pick a sparse layout per graph: row-parallel CSR is the
default, edge-parallel COO load-balances skewed (power-law) degree
distributions, and blocked CSR exploits dense row neighbourhoods with
vectorised block loads.  This module chooses a format from two cheap degree
statistics — mean in-degree and its coefficient of variation — and the
device cost model charges the choice two ways:

* **Efficiency**: format-tuned kernels launch under an ``@fmt``-suffixed
  name and :func:`repro.device.gpu.kernel_efficiency` scales the achieved
  roofline fraction by :data:`FORMAT_EFFICIENCY`.
* **Index traffic**: :func:`format_index_bytes` adds the bytes of the
  format's index arrays to the kernel's memory leg.

Selection is deterministic (pure arithmetic on the degree array) and cached
per :class:`~repro.tensor.ops_sparse.CSRGraph` via ``autotune_format()``.
The rules are documented in ``docs/kernels.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


#: Supported sparse formats, in documentation order.
FORMATS = ("coo", "csr", "bcsr")

#: Row-block edge length for the blocked-CSR layout.
BCSR_BLOCK = 32

#: Skewness threshold: above this degree coefficient-of-variation the
#: row-parallel formats suffer straggler rows and edge-parallel COO wins.
SKEW_CV = 1.0

#: Blocked-CSR needs both dense rows (mean degree at or above this) ...
BCSR_MIN_DEGREE = 8.0

#: ... and a regular degree distribution (CV at or below this) so blocks
#: stay well filled.
BCSR_MAX_CV = 0.5

#: The per-format kernel-efficiency scaling (FORMAT_EFFICIENCY) is owned by
#: the device cost model in :mod:`repro.device.gpu` and re-exported above.

_INDEX_BYTES = 8  # int64 indices, matching CSRGraph's arrays


@dataclass(frozen=True)
class FormatDecision:
    """The cached outcome of :func:`select_format` for one graph."""

    fmt: str
    mean_degree: float
    cv_degree: float
    reason: str


def degree_stats(graph) -> Tuple[float, float]:
    """Return ``(mean, coefficient_of_variation)`` of the in-degrees."""
    degrees = graph.in_degrees().astype(np.float64)
    if len(degrees) == 0:
        return 0.0, 0.0
    mean = float(degrees.mean())
    if mean <= 0.0:
        return mean, 0.0
    return mean, float(degrees.std() / mean)


def select_format(graph) -> FormatDecision:
    """Choose a sparse format from the graph's degree statistics.

    Rules (first match wins):

    1. ``cv > SKEW_CV`` — skewed/power-law degrees: **coo** (edge-parallel,
       load-balanced; pays two indices per edge).
    2. ``mean >= BCSR_MIN_DEGREE and cv <= BCSR_MAX_CV`` — dense, regular
       rows: **bcsr** (block loads amortise index traffic).
    3. otherwise — **csr** (the row-parallel default).

    Pure arithmetic on the degree array, so the same graph always yields
    the same decision.
    """
    mean, cv = degree_stats(graph)
    if cv > SKEW_CV:
        fmt, reason = "coo", f"skewed degrees (cv={cv:.2f} > {SKEW_CV})"
    elif mean >= BCSR_MIN_DEGREE and cv <= BCSR_MAX_CV:
        fmt, reason = "bcsr", (
            f"dense regular rows (mean={mean:.1f} >= {BCSR_MIN_DEGREE}, "
            f"cv={cv:.2f} <= {BCSR_MAX_CV})"
        )
    else:
        fmt, reason = "csr", f"default (mean={mean:.1f}, cv={cv:.2f})"
    return FormatDecision(fmt=fmt, mean_degree=mean, cv_degree=cv, reason=reason)


def format_index_bytes(graph, fmt: str) -> float:
    """Bytes of index metadata a sparse kernel streams for ``fmt``.

    * ``coo``: two indices per edge (source + destination).
    * ``csr``: one column index per edge plus the row-pointer array.
    * ``bcsr``: one block-column index per :data:`BCSR_BLOCK`-edge block
      plus a blocked row-pointer array — the traffic blocking saves.
    """
    e = graph.num_edges
    n_dst = graph.num_dst
    if fmt == "coo":
        return float(_INDEX_BYTES * 2 * e)
    if fmt == "csr":
        return float(_INDEX_BYTES * (e + n_dst + 1))
    if fmt == "bcsr":
        blocks = -(-e // BCSR_BLOCK) if e else 0
        block_rows = -(-n_dst // BCSR_BLOCK) if n_dst else 0
        return float(_INDEX_BYTES * (blocks + block_rows + 1))
    raise ValueError(f"unknown sparse format {fmt!r}, expected one of {FORMATS}")
