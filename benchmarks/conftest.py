"""Benchmark-suite fixtures and result publishing.

Every bench renders the paper-style table it reproduces, prints it, and
writes it under ``benchmarks/results/`` so the numbers survive pytest's
output capturing (EXPERIMENTS.md links to these artifacts).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.experiments import EXPERIMENTS, write_document

REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def publish():
    """Return a function that prints a rendered table and writes it to disk."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _publish(name: str, text: str) -> None:
        print()
        print(text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _publish


@pytest.fixture
def run_document(benchmark, publish):
    """Return a function that runs a gated record on its own protocol,
    publishes the rendering as ``artifact`` and writes the
    ``BENCH_<experiment>.json`` at the repo root — the same bytes a bare
    ``python -m repro.bench.report <experiment>`` writes — then hands the
    body back for the bench's shape assertions."""

    def _run_document(experiment: str, artifact: str):
        record = EXPERIMENTS[experiment]
        body = benchmark.pedantic(record.run, args=(record.protocol,), rounds=1, iterations=1)
        publish(artifact, record.render(body, record.protocol))
        write_document(experiment, body, REPO_ROOT / f"BENCH_{experiment}.json")
        return body

    return _run_document
