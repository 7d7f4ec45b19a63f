"""The one bench-document specification: what each committed
``BENCH_*.json`` must hold, and the numeric environment it is written in.

One :class:`BenchSpec` per document, one :class:`Section` per cell list in
it.  :mod:`repro.bench.serialize` walks this table to validate a document
before it is written.  CI regenerates every document under
:data:`NUMERIC_ENV` and diffs it against the committed copy, so a document
is checked by its bytes and this table only says what a valid one looks
like.  Adding a gated experiment is one entry in :data:`SPECS` (see
``docs/architecture.md``).  This module imports the standard library only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

_NUMBER = (int, float)
#: Schema types whose fields must also hold a finite number.
NUMERIC_TYPES = (int, _NUMBER)

#: Count fields every per-tenant entry of a fleet cell carries.
TENANT_COUNTS = ("n_requests", "completed", "shed", "failed", "resolved")

#: The numeric environment every committed document is written in: one
#: thread per BLAS / OpenMP runtime (a threaded GEMM splits its sums
#: differently from run to run), OpenBLAS's Haswell (AVX2) kernels, and
#: numpy's own SIMD dispatch capped at AVX2.  Left alone, OpenBLAS and
#: numpy each pick kernels by CPU, and an AVX-512 kernel rounds a loss
#: differently.  Both libraries read these variables when they load, so a
#: process sets them before it starts: ``python -m repro.bench.report``
#: re-executes itself under them, CI's regeneration step sets them, and
#: :func:`repro.bench.experiments.write_document` refuses to write a
#: committed document without them.  numpy warns (``ImportWarning``) about
#: a disabled feature it does not dispatch, so the last value follows the
#: numpy build (2.4).
NUMERIC_ENV: Dict[str, str] = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "OPENBLAS_CORETYPE": "Haswell",
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
}


def unpinned_settings() -> List[str]:
    """``NAME='value'`` for each :data:`NUMERIC_ENV` setting this process lacks."""
    return [f"{key}={value!r}" for key, value in NUMERIC_ENV.items()
            if os.environ.get(key) != value]


def is_finite(value: object, numeric: bool = True) -> bool:
    """Whether ``value`` is a finite number, or -- for key fields
    (``numeric=False``) -- anything but ``None`` / NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if numeric:
        return isinstance(value, int) and not isinstance(value, bool)
    return value is not None


@dataclass(frozen=True)
class Section:
    """One cell list of a bench document and what every cell must hold."""

    #: The name validation errors use (``scale.parity``).
    name: str
    #: Fields identifying a cell: present and neither ``None`` nor NaN.
    keys: Tuple[str, ...]
    #: Document key of the cell list; ``None`` when the document *is* it.
    path: Optional[str] = "cells"
    #: These two fields of every cell (and of every tenant entry) must be
    #: equal: no request lost without resolution.
    conserved: Optional[Tuple[str, str]] = None
    #: Field holding per-tenant entries, each carrying integer
    #: :data:`TENANT_COUNTS` and held to ``conserved`` on its own.
    tenants: Optional[str] = None
    #: ``(parts, total)`` -- the parts must sum to the total.
    balance: Optional[Tuple[Tuple[str, ...], str]] = None
    #: Required field -> JSON type(s); a field of a :data:`NUMERIC_TYPES`
    #: type must also be finite (no ``null``, NaN or infinity).
    schema: Mapping[str, object] = field(default_factory=dict)
    #: Closed vocabularies, field -> allowed values.
    vocab: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    def cells(self, doc) -> List[Dict]:
        return doc if self.path is None else doc.get(self.path, [])


@dataclass(frozen=True)
class BenchSpec:
    """One committed ``BENCH_<experiment>.json``."""

    #: The document's ``experiment`` tag (serving documents are a bare
    #: list and carry none).
    experiment: str
    sections: Tuple[Section, ...]

    @property
    def filename(self) -> str:
        return f"BENCH_{self.experiment}.json"


_RUN = ("framework", "model", "dataset")
_NO_LOSS = ("resolved", "n_requests")

_OPS_SCHEMA = {
    "op": str,
    "pack": str,
    "mode": str,
    "precision": str,
    "shape": str,
    "n_nodes": int,
    "n_edges": int,
    "feat_dim": int,
    "launches": int,
    "flops": _NUMBER,
    "bytes": _NUMBER,
    "device_time": _NUMBER,
    "wall_time": _NUMBER,
    "intensity": _NUMBER,
    "bound": str,
    "frac_peak_flops": _NUMBER,
    "frac_peak_bandwidth": _NUMBER,
}

_FLEET_SCHEMA = {
    "kind": str,
    "policy": str,
    "replicas": int,
    "peak_replicas": int,
    "final_replicas": int,
    "framework": str,
    "model": str,
    "dataset": str,
    "trace_scale": _NUMBER,
    "n_requests": int,
    "completed": int,
    "shed": int,
    "failed": int,
    "resolved": int,
    "no_silent_loss": bool,
    "goodput": _NUMBER,
    "p50": _NUMBER,
    "p95": _NUMBER,
    "p99": _NUMBER,
    "mean_latency": _NUMBER,
    "mean_batch_size": _NUMBER,
    "elapsed": _NUMBER,
    "gpu_utilization": _NUMBER,
    "cache_hits": int,
    "cache_misses": int,
    "cache_hit_rate": _NUMBER,
    "retries": int,
    "batch_splits": int,
    "circuit_opens": int,
    "reroutes": int,
    "replica_losses": int,
    "scale_ups": int,
    "scale_downs": int,
    "shed_by_reason": dict,
    "failed_by_reason": dict,
    "tenants": dict,
}

#: Every committed bench document.
SPECS: Dict[str, BenchSpec] = {spec.experiment: spec for spec in (
    BenchSpec("serving", (
        Section("serving", _RUN, path=None,
                schema=dict.fromkeys(("shed", "n_requests", "completed"), int)),
    )),
    BenchSpec("compile", (
        Section("compile", _RUN,
                schema={"eager_launches_per_step": int,
                        "compiled_launches_per_step": int,
                        "guard_failures": int, "parity": bool}),
    )),
    BenchSpec("faults", (
        Section("faults", _RUN + ("fault_rate",), conserved=_NO_LOSS,
                schema={"goodput": _NUMBER, "p99": _NUMBER, "failed": int,
                        "n_requests": int, "resolved": int}),
    )),
    BenchSpec("overlap", (
        Section("overlap", _RUN + ("compiled",),
                schema={"speedup": _NUMBER, "parity": bool,
                        "within_projection": bool}),
    )),
    BenchSpec("scale", (
        Section("scale.training", ("framework", "model"), path="training",
                schema={"epochs_per_sec": _NUMBER, "under_cap": bool,
                        "full_graph_exceeds_cap": bool}),
        Section("scale.parity", ("framework", "model"), path="parity",
                schema={"gap": _NUMBER, "within_tolerance": bool}),
        Section("scale.partitioned", ("framework", "model", "k"),
                path="partitioned",
                schema={"test_acc": _NUMBER, "under_cap": bool}),
    )),
    BenchSpec("scaling", (
        Section("scaling.cells", ("framework", "model", "replicas"),
                schema={"collectives": int, "speedup_vs_dp": _NUMBER,
                        "beats_dataparallel": bool}),
        Section("scaling.parity", ("framework", "model", "mode"), path="parity",
                schema={"loss_bitwise_identical": bool, "test_acc_equal": bool}),
    )),
    BenchSpec("ops", (
        Section("ops", ("op", "pack", "mode", "precision", "shape"),
                schema=_OPS_SCHEMA,
                vocab={"bound": ("launch", "bandwidth", "compute"),
                       "precision": ("fp32", "fp16")}),
    )),
    BenchSpec("fleet", (
        Section("fleet", ("kind", "policy", "replicas"),
                conserved=_NO_LOSS, tenants="tenants",
                balance=(("completed", "shed", "failed"), "resolved"),
                schema=_FLEET_SCHEMA,
                vocab={"kind": ("replicas", "policy", "chaos", "autoscale")}),
    )),
    # The source paper's own tables, figures and ablations on their reduced
    # protocols; every observation is one boolean row of ``claims``.
    BenchSpec("paper", tuple(
        Section(f"paper.{path}", keys, path=path,
                schema=dict.fromkeys(numbers, _NUMBER))
        for path, keys, numbers in (
            ("table1", ("dataset",), ()),
            ("table4", _RUN, ("measured",)),
            ("table5", _RUN, ("measured",)),
            ("sweep", _RUN + ("batch_size",), ("epoch_time", "peak_memory")),
            ("fig3", ("framework", "model"), ("step_time",)),
            ("fig6", ("framework", "model", "batch_size", "n_gpus"), ("epoch_time",)),
            ("ablation_batching", ("framework", "batch_size"), ("seconds",)),
            ("ablation_spmm_fusion", ("kind", "width"), ("launches", "elapsed")),
            ("ablation_gatedgcn_edgefeat", ("framework", "batch_size"),
             ("step_time", "peak_memory")),
            ("ablation_launch_overhead", ("launch_overhead_us", "batch_size"),
             ("fwd_bwd",)),
            ("ablation_dense_baseline", ("kind", "batch_size"),
             ("step_time", "peak_memory")),
            ("ablation_gpu_specs", ("dataset", "speed"), ("epoch_time",)),
            ("ablation_heterograph_types", ("edge_types",), ("seconds",)),
            ("extension_batching_optimizations", ("strategy",), ("epoch_time",)),
        )
    ) + (
        Section("paper.claims", ("claim",), path="claims", schema={"holds": bool}),
    )),
)}


def tag_of(doc: object) -> Optional[str]:
    """The experiment a parsed document claims to be."""
    if isinstance(doc, list):
        return "serving"
    return doc.get("experiment") if isinstance(doc, dict) else None
