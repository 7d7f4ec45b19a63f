"""The numeric environment committed documents are written in
(``repro.bench.spec.NUMERIC_ENV``): CI regenerates under the same values,
numpy accepts them, and the writer refuses the committed path without them."""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from repro.bench.experiments import write_document
from repro.bench.spec import NUMERIC_ENV

REPO_ROOT = Path(__file__).resolve().parents[2]
WORKFLOW = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
REGENERATE_STEP = "- name: Regenerate all nine bench documents"


def _step_env(workflow: str, step: str) -> dict:
    """The ``env:`` mapping of one workflow step, read line by line."""
    lines = workflow.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == step)
    env, inside = {}, False
    for line in lines[start + 1:]:
        stripped = line.strip()
        if stripped.startswith("- "):
            break
        if stripped == "env:":
            inside = True
        elif inside:
            match = re.fullmatch(r'(\w+): "(.*)"', stripped)
            if match is None:
                break
            env[match[1]] = match[2]
    return env


def test_ci_regenerates_under_the_constant():
    assert _step_env(WORKFLOW, REGENERATE_STEP) == NUMERIC_ENV


#: The numpy CI's bench-regression job installs: the build that recorded the
#: committed documents, whose x86 dispatch list the pin's feature names follow.
RECORDING_NUMPY = re.search(r"\bnumpy==([\w.]+)", WORKFLOW)[1]

#: Another numpy, or another architecture, dispatches other features; the
#: bench-regression job runs these two tests on the recording build.
on_the_recording_numpy = pytest.mark.skipif(
    numpy.__version__ != RECORDING_NUMPY
    or platform.machine() not in ("x86_64", "AMD64"),
    reason=f"the pin follows numpy {RECORDING_NUMPY}'s x86 dispatch list",
)


def _import_numpy_strictly(env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-W", "error::ImportWarning", "-c", "import numpy, scipy"],
        env=env, capture_output=True, text=True, check=False,
    )


@on_the_recording_numpy
def test_numpy_dispatches_every_disabled_feature():
    done = _import_numpy_strictly({**os.environ, **NUMERIC_ENV})
    assert done.returncode == 0, done.stderr


@on_the_recording_numpy
def test_numpy_rejects_a_feature_it_does_not_dispatch():
    # The control for the test above: a name outside numpy's dispatch list
    # is an ImportWarning, so a pin that drifts from the numpy build fails.
    pinned = NUMERIC_ENV["NPY_DISABLE_CPU_FEATURES"]
    env = {**os.environ, **NUMERIC_ENV, "NPY_DISABLE_CPU_FEATURES": f"{pinned} NOT_A_FEATURE"}
    done = _import_numpy_strictly(env)
    assert done.returncode != 0
    assert "NOT_A_FEATURE" in done.stderr


def test_committed_document_is_written_only_when_pinned(tmp_path, monkeypatch):
    for key in NUMERIC_ENV:
        monkeypatch.delenv(key, raising=False)
    committed = REPO_ROOT / "BENCH_compile.json"
    before = committed.read_bytes()
    doc = json.loads(before)
    with pytest.raises(RuntimeError, match="committed BENCH_compile.json") as refused:
        write_document("compile", doc, committed)
    for key, value in NUMERIC_ENV.items():
        assert f"{key}={value!r}" in str(refused.value)
    assert committed.read_bytes() == before
    elsewhere = tmp_path / "BENCH_compile.json"
    write_document("compile", doc, elsewhere)
    assert elsewhere.read_bytes() == before
