"""Serialisation of experiment results to JSON/CSV.

Experiments print human-readable tables; downstream analysis (plotting
the figures, diffing runs) wants machine-readable records.  Experiment
bodies are JSON-able cells already; these helpers flatten serving
results to such cells, and validate every ``BENCH_*.json`` document
against its spec on the way in and out.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict, Iterable

from repro.bench.spec import (
    NUMERIC_TYPES, SPECS, TENANT_COUNTS, Section, is_finite, tag_of,
)
from repro.serve.metrics import ServingResult


def serving_to_dict(result: ServingResult) -> Dict:
    """Flatten a serving run to a ``BENCH_serving.json`` cell (string keys)."""
    return {
        "framework": result.framework,
        "model": result.model,
        "dataset": result.dataset,
        "n_requests": result.n_requests,
        "completed": result.completed,
        "shed": result.shed,
        "shed_by_reason": dict(result.shed_by_reason),
        "latency_percentiles": {str(p): v for p, v in result.latency_percentiles.items()},
        "mean_latency": result.mean_latency,
        "mean_queue_delay": result.mean_queue_delay,
        "throughput": result.throughput,
        "mean_batch_size": result.mean_batch_size,
        "batch_size_histogram": {str(k): v for k, v in result.batch_size_histogram.items()},
        "max_queue_depth": result.max_queue_depth,
        "mean_queue_depth": result.mean_queue_depth,
        "elapsed": result.elapsed,
        "gpu_utilization": result.gpu_utilization,
        "busy_fraction": result.busy_fraction,
        "phase_times": dict(result.phase_times),
        "failed": result.failed,
        "failed_by_reason": dict(result.failed_by_reason),
        "retries": result.retries,
        "batch_splits": result.batch_splits,
        "circuit_opens": result.circuit_opens,
    }


# ----------------------------------------------------------------------
# BENCH_*.json documents (one spec each in repro.bench.spec)
# ----------------------------------------------------------------------
def _validate_cell(section: Section, where: str, cell: Dict) -> None:
    for name in section.keys:
        if name not in cell:
            raise ValueError(f"{where} is missing field {name!r}")
        if not is_finite(cell[name], numeric=False):
            raise ValueError(
                f"{where} field {name!r} is not a finite number ({cell[name]!r})"
            )
    for name, types in section.schema.items():
        if name not in cell:
            raise ValueError(f"{where} is missing field {name!r}")
        value, numeric = cell[name], types in NUMERIC_TYPES
        # A null number is a missing measurement, not a field of another type.
        if not (numeric and value is None) and not isinstance(value, types):
            raise ValueError(
                f"{where} field {name!r} has type "
                f"{type(value).__name__}, expected {types}"
            )
        if numeric and not is_finite(value):
            raise ValueError(
                f"{where} field {name!r} is not a finite number ({value!r})"
            )
    for name, allowed in section.vocab.items():
        if cell[name] not in allowed:
            raise ValueError(
                f"{where} has {name}={cell[name]!r}, expected one of {allowed}"
            )
    if section.balance is not None:
        parts, total = section.balance
        if sum(cell[p] for p in parts) != cell[total]:
            raise ValueError(f"{where}: {' + '.join(parts)} != {total}")
    _check_conserved(section, where, cell)
    if section.tenants is not None:
        for tenant, entry in cell[section.tenants].items():
            if not isinstance(entry, dict):
                raise ValueError(f"{where} tenant {tenant!r} is not a dict")
            for name in TENANT_COUNTS:
                if not isinstance(entry.get(name), int):
                    raise ValueError(
                        f"{where} tenant {tenant!r} is missing "
                        f"integer field {name!r}"
                    )
            _check_conserved(section, f"{where} tenant {tenant!r}", entry)


def _check_conserved(section: Section, where: str, entry: Dict) -> None:
    if section.conserved is None:
        return
    held, expected = section.conserved
    if entry[held] != entry[expected]:
        raise ValueError(
            f"{where}: {held} {entry[held]} != {expected} {entry[expected]} "
            f"(requests lost without resolution)"
        )


def validate_document(experiment: str, doc):
    """Validate a ``BENCH_<experiment>.json`` document against its spec.

    Every document: the shape and ``experiment`` tag match, each section
    is a list, and every cell carries its key fields and its schema's
    fields, each of its type and every number finite.  Where the spec
    declares them, also closed vocabularies, the resolution arithmetic, request
    conservation (``resolved == n_requests``, per cell and per tenant) and
    per-tenant counts.  Raises :class:`ValueError` naming the first
    offending cell (and tenant) and field; returns the document unchanged
    when valid, so this composes as a pass-through in the to/from JSON
    round-trip.
    """
    found = tag_of(doc)
    if found != experiment:
        article = "an" if experiment[0] in "aeiou" else "a"
        raise ValueError(
            f"not {article} {experiment} document (experiment={found!r})"
        )
    for section in SPECS[experiment].sections:
        cells = doc if section.path is None else doc.get(section.path)
        if not isinstance(cells, list):
            raise ValueError(f"{experiment} document has no {section.path!r} list")
        for i, cell in enumerate(cells):
            _validate_cell(section, f"{section.name} cell {i}", cell)
    return doc


def document_to_json(experiment: str, body) -> str:
    """Serialise the ``BENCH_<experiment>.json`` document (validated).

    ``body`` is the document without its tag -- a dict of sections, or
    the bare entry list of a serving document.  The writer names the
    experiment; a body already tagged as another one is rejected.
    """
    doc = {"experiment": experiment, **body} if isinstance(body, dict) else body
    return json.dumps(validate_document(experiment, doc), indent=2)


def document_from_json(experiment: str, text: str):
    """Parse + validate a ``BENCH_<experiment>.json`` document."""
    return validate_document(experiment, json.loads(text))


def cells_to_csv(cells: Iterable[Dict]) -> str:
    """Flat CSV of the scalar fields of JSON-able cells (one row per cell)."""
    cells = list(cells)
    columns = [k for k, v in cells[0].items() if not isinstance(v, (list, dict))] if cells else []
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    writer.writerows([cell[k] for k in columns] for cell in cells)
    return buffer.getvalue()
