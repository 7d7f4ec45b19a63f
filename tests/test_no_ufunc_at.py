"""Guard: ``ufunc.at`` / ``ufunc.reduceat`` must not creep back into ``src/repro``.

``np.add.at`` was 60 % of a ``train_pygx`` host lap before sum reductions
moved onto ``repro.tensor._reduce`` (one scipy sparsetools call each); a
``scipy.sparse`` matrix object built around each of those calls was a
seventh of a ``serve_replay`` lap before ``_reduce`` called the C loops
directly; a module-level ``from scipy import stats`` was half of every
process's start-up; ``np.where`` on the sign of an activation — a coin flip
per element — was 63 ms of a 0.42 s ``train_pygx`` lap.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: ``(file, enclosing function, call)`` — max reductions only; sums have a kernel.
ALLOWED = {
    ("tensor/ops_scatter.py", "scatter_max", "np.maximum.at"),
    ("tensor/ops_sparse.py", "_segment_max_csr", "np.maximum.reduceat"),
}


def _ufunc_method_calls(path):
    """Yield ``(enclosing function, "np.<ufunc>.<at|reduceat>")`` for each call."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("at", "reduceat")
            and isinstance(node.func.value, ast.Attribute)
        ):
            yield function, ast.unparse(node.func)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text()), "<module>")


def test_only_allow_listed_ufunc_at_and_reduceat():
    found = {
        (path.relative_to(SRC).as_posix(), function, call)
        for path in sorted(SRC.rglob("*.py"))
        for function, call in _ufunc_method_calls(path)
    }
    assert found == ALLOWED, (
        f"unexpected: {sorted(found - ALLOWED)}, stale allow-list: {sorted(ALLOWED - found)}. "
        "Sum reductions go through repro.tensor._reduce (scatter_add_rows / "
        "segment_add_rows), not ufunc.at / ufunc.reduceat — see docs/kernels.md, "
        "'Reduction numerics'."
    )


#: The one module that may touch scipy's private C loops, and its one use.
SPARSETOOLS_HOME = {("tensor/_reduce.py", "_sparsetools import")}
MATRIX_CONSTRUCTORS = ("csr_matrix", "csc_matrix", "coo_matrix")


def _sparse_matrix_uses(path):
    """Yield a label per scipy matrix construction and per ``_sparsetools`` import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            called = ast.unparse(node.func).rsplit(".", 1)[-1]
            if called in MATRIX_CONSTRUCTORS:
                yield f"{called}( call"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and "_sparsetools" in ast.unparse(node):
            yield "_sparsetools import"


def test_no_scipy_matrix_objects_and_one_sparsetools_import():
    found = {
        (path.relative_to(SRC).as_posix(), use)
        for path in sorted(SRC.rglob("*.py"))
        for use in _sparse_matrix_uses(path)
    }
    assert found == SPARSETOOLS_HOME, (
        f"unexpected: {sorted(found - SPARSETOOLS_HOME)}. Sparse products go through "
        "repro.tensor._reduce (scatter_add_rows / segment_add_rows / csr_product), which "
        "calls the sparsetools loops without building a scipy matrix — see "
        "docs/kernels.md, 'Reduction numerics'."
    )


#: ``(file, enclosing function)`` of every scipy import: the kernel module's
#: loader falls back to the package import only when it cannot load the one
#: extension file directly, the t-test pays for ``scipy.special`` when called.
SCIPY_IMPORTS = {
    ("tensor/_reduce.py", "_load_sparsetools"),
    ("train/stats.py", "compare_accuracies"),
}


def _scipy_imports(path):
    """Yield the enclosing function (or ``"<module>"``) of each scipy import."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)) and re.search(r"\bscipy\b", ast.unparse(node)):
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text()), "<module>")


def test_scipy_is_imported_by_the_kernel_module_and_inside_one_function():
    found = {
        (path.relative_to(SRC).as_posix(), function)
        for path in sorted(SRC.rglob("*.py"))
        for function in _scipy_imports(path)
    }
    assert found == SCIPY_IMPORTS, (
        f"unexpected: {sorted(found - SCIPY_IMPORTS)}, stale allow-list: "
        f"{sorted(SCIPY_IMPORTS - found)}. A module-level scipy import is paid by every "
        "process that imports repro (scipy.stats was half of hostbench's setup_s, the "
        "scipy.sparse package a third of what was left): nothing in src/ imports a scipy "
        "package at module level — tensor/_reduce.py loads one extension file, anything "
        "else is imported inside the function that calls it. See docs/architecture.md, "
        "'A process imports only what it runs'; tests/test_import_graph.py measures "
        "the same thing in a fresh interpreter."
    )


#: ``(file, enclosing function)`` of every ``np.where`` in the kernels and layers:
#: the ``where`` op itself, and the empty-bin masks of the max reductions and
#: ``edge_softmax``, whose condition is false for almost every element.
WHERE_DIRS = ("tensor", "nn")
WHERE_ALLOWED = {
    ("tensor/ops.py", "where"),
    ("tensor/ops_scatter.py", "_max_reduce"),
    ("tensor/ops_sparse.py", "edge_softmax"),
    ("tensor/ops_sparse.py", "_gspmm_max"),
}


def _np_where_calls(path):
    """Yield the enclosing function (or ``"<module>"``) of each ``np.where(`` call."""

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.where":
            yield function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(ast.parse(path.read_text()), "<module>")


def test_np_where_only_on_predictable_conditions():
    found = {
        (path.relative_to(SRC).as_posix(), function)
        for directory in WHERE_DIRS
        for path in sorted((SRC / directory).rglob("*.py"))
        for function in _np_where_calls(path)
    }
    assert found == WHERE_ALLOWED, (
        f"unexpected: {sorted(found - WHERE_ALLOWED)}, stale allow-list: "
        f"{sorted(WHERE_ALLOWED - found)}. np.where on a data-dependent sign mispredicts "
        "every other element (2.5 ms vs 0.43 ms on a GAT activation): write an activation "
        "branch-free as max(x, 0) + f(min(x, 0)) — see docs/kernels.md, 'Activation "
        "numerics'; tests/tensor/test_activation_kernels.py holds the np.where forms as "
        "the oracle."
    )
