"""Guard: importing ``repro`` loads one scipy extension file, not a scipy package.

``from scipy import stats`` at the top of ``repro.train.stats`` used to pull
415 extra scipy modules, ~0.5 s and 49 MB into every process for a t-test
no workload calls; the ``scipy.sparse`` package around the two C loops
``repro.tensor._reduce`` calls was another 0.15 s and 24 MB.  The loader in
``_reduce`` is measured here in fresh interpreters: what it leaves in
``sys.modules``, that a later (or earlier) ``import scipy.sparse`` shares
its module, and that its fallback is the plain import.  See
docs/architecture.md, "A process imports only what it runs".
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPARSETOOLS = "scipy.sparse._sparsetools"


def _run(script, *args):
    """Run ``script`` in a fresh interpreter; its last stdout line, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.splitlines()[-1])


EVERY_MODULE = """
import importlib, json, pkgutil, sys

import repro
modules = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
after_import = [m for m in sys.modules if m.split(".")[0] == "scipy"]

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
    seen = _run(EVERY_MODULE)
    assert seen["modules"] > 100, "pkgutil walked too little of src/repro to mean anything"
    assert seen["after_import"] == [SPARSETOOLS], (
        f"importing repro left {seen['after_import'][:6]} in sys.modules, expected the one "
        "extension module repro.tensor._reduce loads. Import scipy inside the function that "
        "needs it — see docs/architecture.md, 'A process imports only what it runs'."
    )
    # The one function-level import still works after the direct load: the
    # t-distribution's CDF, not scipy.stats.
    assert seen["special_after_call"]
    assert not seen["stats_after_call"]


#: Import order is argv[1]; then the real package must share the loader's module
#: and its own matrix product must be the kernel's, bit for bit.  ``from
#: scipy.sparse import _sparsetools`` is the form scipy itself uses; the import
#: system binds a submodule as an *attribute* of its package only when it does
#: the loading, so after a direct load ``scipy.sparse._sparsetools`` is unset.
SHARED_MODULE = """
import json, sys

if sys.argv[1] == "scipy first":
    import scipy.sparse
import repro.tensor
package_in_before = "scipy.sparse" in sys.modules
import scipy.sparse

import numpy as np
from repro.tensor import _reduce
from scipy.sparse import _sparsetools

rng = np.random.default_rng(0)
dense = (rng.random((40, 30)) * (rng.random((40, 30)) < 0.2)).astype(np.float32)
matrix = scipy.sparse.csr_matrix(dense)
x = rng.standard_normal((30, 7)).astype(np.float32)
ours = _reduce.csr_product(matrix.indptr, matrix.indices, matrix.data, x, 40)
print(json.dumps({
    "package_in_before": package_in_before,
    "one_module": sys.modules["scipy.sparse._sparsetools"] is _sparsetools is _reduce._sparsetools,
    "bit_equal": bool(np.array_equal(matrix @ x, ours)),
}))
"""


@pytest.mark.parametrize("order", ["repro first", "scipy first"])
def test_scipy_sparse_and_the_loader_share_one_module(order):
    seen = _run(SHARED_MODULE, order)
    expected = {"package_in_before": order == "scipy first", "one_module": True, "bit_equal": True}
    assert seen == expected


#: ``find_spec("scipy")`` fails as argv[1] says; the kernel oracle then runs on
#: whatever the loader fell back to.
FALLBACK = """
import importlib.util, json, sys, tempfile, types

real = importlib.util.find_spec

def broken(name, package=None):
    if name != "scipy":
        return real(name, package)
    if sys.argv[1] == "raises":
        raise RuntimeError("no finder for you")
    return types.SimpleNamespace(submodule_search_locations=[tempfile.gettempdir()])

importlib.util.find_spec = broken
from repro.tensor import _reduce
importlib.util.find_spec = real
package_imported = "scipy.sparse" in sys.modules

import pytest
code = pytest.main([sys.argv[2], "-q", "-x", "-p", "no:cacheprovider"])
print(json.dumps({
    "package_imported": package_imported,
    "one_module": sys.modules["scipy.sparse._sparsetools"] is _reduce._sparsetools,
    "oracle_exit": int(code),
}))
"""


@pytest.mark.parametrize("failure", ["raises", "no extension file there"])
def test_loader_falls_back_to_the_package_import(failure):
    seen = _run(FALLBACK, failure, str(ROOT / "tests" / "tensor" / "test_reduce_kernels.py"))
    assert seen == {"package_imported": True, "one_module": True, "oracle_exit": 0}
