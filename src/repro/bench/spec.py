"""The one gate specification: what is in each committed ``BENCH_*.json``
and when it has regressed.

One :class:`BenchSpec` per document, one :class:`Section` per cell list in
it.  ``tools/check_bench_regression.py`` walks this table to diff a fresh
run against the committed baseline, and :mod:`repro.bench.serialize` walks
the same table to validate a document before it is written, so the key
fields and gated metrics are declared once.  Adding a gated experiment is
one entry in :data:`SPECS` plus one regressed fixture (see
``docs/architecture.md``).

Only *deterministic, scale-free* metrics are gated -- kernel-launch
counts, shed/failure fractions, numeric parity, simulated-clock times --
because host wall-clock numbers would make the gate flaky.  This module
imports the standard library only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

#: ``(metric, direction, absolute floor)``.  ``lower`` means a larger
#: current value is a regression; ``higher`` the reverse; ``exact`` must
#: equal the baseline.  The floor keeps zero-valued baselines from
#: tripping the relative tolerance on noise.
Metric = Tuple[str, str, float]

_NUMBER = (int, float)

#: Count fields every per-tenant entry of a fleet cell carries.
TENANT_COUNTS = ("n_requests", "completed", "shed", "failed", "resolved")


def is_finite(value: object, numeric: bool = True) -> bool:
    """Whether ``value`` can be gated: a finite number, or -- for key
    fields and ``exact`` metrics (``numeric=False``) -- anything but
    ``None`` / NaN."""
    if isinstance(value, float):
        return math.isfinite(value)
    if numeric:
        return isinstance(value, int) and not isinstance(value, bool)
    return value is not None


@dataclass(frozen=True)
class Section:
    """One cell list of a bench document and how it is gated."""

    #: Label prefix and the name validation errors use (``scale.parity``).
    name: str
    #: Fields identifying a cell; baseline and current cells pair on them.
    keys: Tuple[str, ...]
    #: ``str.format`` template over the cell's fields (plus ``index``),
    #: rendered inside ``name[...]``.
    label: str
    metrics: Tuple[Metric, ...]
    #: Document key of the cell list; ``None`` when the document *is* it.
    path: Optional[str] = "cells"
    #: Cells repeat a key (serving runs one cell per batching policy), so
    #: pair them by position instead.
    positional: bool = False
    #: Derived view: gated metric -> ``(numerator, denominator)`` fields.
    ratios: Mapping[str, Tuple[str, str]] = field(default_factory=dict)
    #: Key field -> value -> the word the label shows for it.
    label_names: Mapping[str, Mapping[object, str]] = field(default_factory=dict)
    #: Gate: these two fields of every *current* cell must be equal (no
    #: request lost without resolution), whatever the metrics say.
    conserved: Optional[Tuple[str, str]] = None
    #: Field holding per-tenant entries, each carrying integer
    #: :data:`TENANT_COUNTS` and held to ``conserved`` on its own.
    tenants: Optional[str] = None
    #: Schema: ``(parts, total)`` -- the parts must sum to the total.
    balance: Optional[Tuple[Tuple[str, ...], str]] = None
    #: Schema: required field -> JSON type(s), where one is declared.
    schema: Mapping[str, object] = field(default_factory=dict)
    #: Schema: closed vocabularies, field -> allowed values.
    vocab: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    def cells(self, doc) -> List[Dict]:
        return doc if self.path is None else doc.get(self.path, [])

    def key(self, cell: Dict) -> Tuple:
        return tuple(cell[k] for k in self.keys)

    def label_of(self, cell: Dict, index: int) -> str:
        shown = {k: self.label_names.get(k, {}).get(cell[k], cell[k])
                 for k in self.keys}
        return f"{self.name}[{self.label.format(index=index, **shown)}]"

    def sources(self, metric: str) -> Tuple[str, ...]:
        """The cell fields a gated metric is read from."""
        return self.ratios.get(metric, (metric,))

    def value(self, metric: str, cell: Dict):
        if metric in self.ratios:
            numerator, denominator = self.ratios[metric]
            return cell[numerator] / max(cell[denominator], 1)
        return cell[metric]


@dataclass(frozen=True)
class BenchSpec:
    """One committed ``BENCH_<experiment>.json``."""

    #: The document's ``experiment`` tag (serving documents are a bare
    #: list and carry none).
    experiment: str
    sections: Tuple[Section, ...]
    #: CI also regenerates a reduced grid of this document, so the gate's
    #: ``--subset`` may skip baseline cells the current run lacks.
    subset: bool = False

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

#: Every committed bench document, in the order the gate reports them.
SPECS: Dict[str, BenchSpec] = {spec.experiment: spec for spec in (
    BenchSpec("serving", (
        Section("serving", _RUN, "{index}:{framework}/{model}/{dataset}",
                (("shed_fraction", "lower", 0.01),
                 ("completed", "higher", 0.5)),
                path=None, positional=True,
                ratios={"shed_fraction": ("shed", "n_requests")}),
    )),
    BenchSpec("compile", (
        Section("compile", _RUN, "{framework}/{model}/{dataset}",
                (("eager_launches_per_step", "lower", 0.5),
                 ("compiled_launches_per_step", "lower", 0.5),
                 ("guard_failures", "lower", 0.5),
                 ("parity", "exact", 0.0))),
    )),
    BenchSpec("faults", (
        Section("faults", _RUN + ("fault_rate",),
                "{framework}/{model}/{dataset}@{fault_rate:g}",
                (("goodput", "higher", 1.0),
                 ("p99", "lower", 1e-4),
                 ("failed_fraction", "lower", 0.01)),
                ratios={"failed_fraction": ("failed", "n_requests")},
                conserved=_NO_LOSS),
    )),
    # Overlap cells are fully deterministic (simulated clock), so numeric
    # parity and projection convergence gate exactly; the epoch speedup
    # only guards against losing the overlap win outright.
    BenchSpec("overlap", (
        Section("overlap", _RUN + ("compiled",),
                "{framework}/{model}/{dataset}/{compiled}",
                (("parity", "exact", 0.0),
                 ("within_projection", "exact", 0.0),
                 ("speedup", "higher", 0.01)),
                label_names={"compiled": {False: "eager", True: "compiled"}}),
    )),
    # Scale cells run on the simulated clock and a capped memory pool, so
    # all three sections are deterministic: the fit/parity booleans gate
    # exactly, the accuracy gap and throughput within the tolerance.
    BenchSpec("scale", (
        Section("scale.training", ("framework", "model"), "{framework}/{model}",
                (("under_cap", "exact", 0.0),
                 ("full_graph_exceeds_cap", "exact", 0.0),
                 ("epochs_per_sec", "higher", 0.01)),
                path="training"),
        Section("scale.parity", ("framework", "model"), "{framework}/{model}",
                (("within_tolerance", "exact", 0.0),
                 ("gap", "lower", 0.005)),
                path="parity"),
        Section("scale.partitioned", ("framework", "model", "k"),
                "{framework}/{model}/{k}",
                (("under_cap", "exact", 0.0),
                 ("test_acc", "higher", 0.01)),
                path="partitioned"),
    )),
    # DDP scaling cells are deterministic (simulated clock + modelled
    # fabric): the beat-the-baseline boolean and collective count gate
    # exactly, the speedup within the tolerance so cost-model tweaks that
    # shift both curves together do not trip the gate.
    BenchSpec("scaling", (
        Section("scaling.cells", ("framework", "model", "replicas"),
                "{framework}/{model}/{replicas}",
                (("beats_dataparallel", "exact", 0.0),
                 ("collectives", "exact", 0.0),
                 ("speedup_vs_dp", "higher", 0.05))),
        Section("scaling.parity", ("framework", "model", "mode"),
                "{framework}/{model}/{mode}",
                (("loss_bitwise_identical", "exact", 0.0),
                 ("test_acc_equal", "exact", 0.0)),
                path="parity"),
    )),
    # Operation-level cells run entirely on the simulated clock: ``lower``
    # lets launch-count *improvements* through, and a >10% op slowdown or
    # any bound-class flip (e.g. a kernel sliding from bandwidth- to
    # launch-bound) fails CI.
    BenchSpec("ops", (
        Section("ops", ("op", "pack", "mode", "precision", "shape"),
                "{op}/{pack}/{mode}/{precision}/{shape}",
                (("bound", "exact", 0.0),
                 ("launches", "lower", 0.5),
                 ("wall_time", "lower", 1e-7)),
                schema=_OPS_SCHEMA,
                vocab={"bound": ("launch", "bandwidth", "compute"),
                       "precision": ("fp32", "fp16")}),
    ), subset=True),
    # Fleet cells run on the simulated clock from seeded traffic, routing
    # and chaos streams, so goodput/completed/p99 gate within the
    # tolerance; the no-silent-loss invariants gate exactly, fleet-wide
    # and per tenant (any silent drop fails CI regardless of magnitude).
    BenchSpec("fleet", (
        Section("fleet", ("kind", "policy", "replicas"),
                "{kind}/{policy}/x{replicas:d}",
                (("goodput", "higher", 1.0),
                 ("completed", "higher", 0.5),
                 ("p99", "lower", 1e-4),
                 ("no_silent_loss", "exact", 0.0)),
                conserved=_NO_LOSS, tenants="tenants",
                balance=(("completed", "shed", "failed"), "resolved"),
                schema=_FLEET_SCHEMA,
                vocab={"kind": ("replicas", "policy", "chaos", "autoscale")}),
    ), subset=True),
    # The source paper's own tables, figures and ablations on their reduced
    # protocols.  Every observation is a boolean row of ``claims`` gated
    # exactly (flip the PyG/DGL winner and CI fails whatever the margin);
    # simulated times, memory and launch counts gate within the tolerance.
    # Accuracies are recorded but gated only through the parity claims.
    BenchSpec("paper", tuple(
        Section(f"paper.{path}", keys, "/".join(f"{{{k}}}" for k in keys),
                tuple((metric, "lower", floor) for metric, floor in metrics), path=path)
        for path, keys, metrics in (
            ("table1", ("dataset",), ()),
            ("table4", _RUN, (("measured", 1e-6),)),
            ("table5", _RUN, (("measured", 1e-6),)),
            ("sweep", _RUN + ("batch_size",), (("epoch_time", 1e-6), ("peak_memory", 1e5))),
            ("fig3", ("framework", "model"), (("step_time", 1e-7),)),
            ("fig6", ("framework", "model", "batch_size", "n_gpus"), (("epoch_time", 1e-6),)),
            ("ablation_batching", ("framework", "batch_size"), (("seconds", 1e-6),)),
            ("ablation_spmm_fusion", ("kind", "width"), (("launches", 0.5), ("elapsed", 1e-7))),
            ("ablation_gatedgcn_edgefeat", ("framework", "batch_size"),
             (("step_time", 1e-6), ("peak_memory", 1e5))),
            ("ablation_launch_overhead", ("launch_overhead_us", "batch_size"),
             (("fwd_bwd", 1e-6),)),
            ("ablation_dense_baseline", ("kind", "batch_size"),
             (("step_time", 1e-6), ("peak_memory", 1e5))),
            ("ablation_gpu_specs", ("dataset", "speed"), (("epoch_time", 1e-6),)),
            ("ablation_heterograph_types", ("edge_types",), (("seconds", 1e-6),)),
            ("extension_batching_optimizations", ("strategy",), (("epoch_time", 1e-6),)),
        )
    ) + (
        Section("paper.claims", ("claim",), "{claim}", (("holds", "exact", 0.0),),
                path="claims"),
    )),
)}


def tag_of(doc: object) -> Optional[str]:
    """The experiment a parsed document claims to be."""
    if isinstance(doc, list):
        return "serving"
    return doc.get("experiment") if isinstance(doc, dict) else None


def spec_for(doc: object) -> BenchSpec:
    """The spec of a parsed document, by shape and ``experiment`` tag."""
    tag = tag_of(doc)
    if tag not in SPECS:
        raise ValueError(f"unrecognised bench document (experiment={tag!r})")
    return SPECS[tag]
