"""EXPERIMENTS.md cannot go stale: it is the rendering of the committed
``BENCH_*.json`` documents, byte for byte."""

from __future__ import annotations

import importlib.util
import os

from repro.bench.experiments import EXPERIMENTS, PAPER_SECTIONS
from repro.bench.spec import SPECS

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def _load_builder():
    spec = importlib.util.spec_from_file_location(
        "build_experiments_md", os.path.join(REPO_ROOT, "tools", "build_experiments_md.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


builder = _load_builder()


def test_committed_file_is_the_rendering_of_the_committed_documents():
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as fh:
        assert builder.render() == fh.read(), "run python tools/build_experiments_md.py"


def test_every_document_and_every_paper_record_has_a_section():
    readers = {name for names in PAPER_SECTIONS.values() for name in names}
    assert set(builder.SECTIONS) == (set(SPECS) - {"paper"}) | readers
    assert readers | set(SPECS) | {"kernels"} == set(EXPERIMENTS)


def test_no_claim_is_reported_failing():
    assert "**FAILS" not in builder.render()


def test_a_missing_document_is_an_error_exit(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(builder, "ROOT", tmp_path)
    assert builder.main() == 1
    assert "BENCH_serving.json" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []
