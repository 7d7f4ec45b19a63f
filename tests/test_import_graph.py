"""Guard: importing ``repro`` loads no more of scipy than ``scipy.sparse`` does.

``from scipy import stats`` at the top of ``repro.train.stats`` used to pull
415 extra scipy modules, ~0.5 s and 49 MB into every process for a t-test
no workload calls — half of a hostbench ``setup_s``.  The snapshot is taken
relative to ``import scipy.sparse`` in the same interpreter, so the guard
holds on whatever scipy CI installs.  See docs/architecture.md, "What a
process costs before its first step".
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import importlib, json, pkgutil, sys

import scipy.sparse
before = set(sys.modules)

import repro
modules = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
after_import = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "scipy")

from repro.train.stats import compare_accuracies
compare_accuracies([0.80, 0.82, 0.78], [0.75, 0.77, 0.73])
print(json.dumps({
    "modules": len(modules),
    "after_import": after_import,
    "special_after_call": "scipy.special" in sys.modules,
    "stats_after_call": "scipy.stats" in sys.modules,
}))
"""


def test_importing_every_repro_module_loads_no_scipy_beyond_sparse():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["modules"] > 100, "pkgutil walked too little of src/repro to mean anything"
    assert seen["after_import"] == [], (
        f"importing repro loaded {len(seen['after_import'])} scipy modules beyond scipy.sparse "
        f"(first: {seen['after_import'][:5]}). Import scipy inside the function that needs it — "
        "see docs/architecture.md, 'What a process costs before its first step'."
    )
    # The one function-level import: the t-distribution's CDF, not scipy.stats.
    assert seen["special_after_call"]
    assert not seen["stats_after_call"]
