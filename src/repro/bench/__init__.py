"""Cell functions, serialisers and table rendering behind the experiment records."""

from repro.bench.runner import (
    PHASE_ORDER,
    breakdown_row,
    compile_cell,
    epoch_profile,
    faults_cell,
    layerwise_profile,
    overlap_cell,
    step_kernel_records,
    serving_cell,
    table4_cell,
    table5_cell,
    trained_inference_model,
)
from repro.bench.scale import (
    MEMORY_CAP_BYTES,
    SCALE_FRAMEWORKS,
    SCALE_MODELS,
    capped_device,
    million_scale_dataset,
    scale_parity_cell,
    scale_partitioned_cell,
    scale_training_cell,
    smoke_scale_dataset,
)
from repro.bench.scaling import (
    SCALING_FRAMEWORKS,
    SCALING_MODELS,
    SCALING_REPLICAS,
    scaling_cell,
    scaling_parity_cell,
    scaling_series,
)
from repro.bench.overlap import OverlapProjection, project_overlap
# NOTE: repro.bench.experiments (the EXPERIMENTS table, with the ops and
# fleet benches it pulls in) and repro.bench.report (the ``python -m``
# entry point) are deliberately *not* imported here: cell-function users
# such as hostbench should not pay for the whole table.  Import them
# directly: ``from repro.bench.experiments import EXPERIMENTS``.
from repro.bench.serialize import (
    cells_to_csv,
    document_from_json,
    document_to_json,
    validate_document,
)
from repro.bench.tables import format_seconds, format_table
from repro.packs import FRAMEWORKS

__all__ = [
    "FRAMEWORKS",
    "PHASE_ORDER",
    "table4_cell",
    "table5_cell",
    "epoch_profile",
    "breakdown_row",
    "layerwise_profile",
    "format_table",
    "format_seconds",
    "project_overlap",
    "OverlapProjection",
    "cells_to_csv",
    "serving_cell",
    "compile_cell",
    "step_kernel_records",
    "trained_inference_model",
    "faults_cell",
    "overlap_cell",
    "document_to_json",
    "document_from_json",
    "validate_document",
    "MEMORY_CAP_BYTES",
    "SCALE_FRAMEWORKS",
    "SCALE_MODELS",
    "capped_device",
    "million_scale_dataset",
    "scale_parity_cell",
    "scale_partitioned_cell",
    "scale_training_cell",
    "smoke_scale_dataset",
    "SCALING_FRAMEWORKS",
    "SCALING_MODELS",
    "SCALING_REPLICAS",
    "scaling_cell",
    "scaling_parity_cell",
    "scaling_series",
]
