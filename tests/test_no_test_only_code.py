"""Guard: no public ``src`` name or switch is reached only from tests.

A public name is a module-level ``def`` / ``class`` under ``src/repro`` whose
name has no leading underscore, or such a method of a public class.  It is
*reached* when its name appears as an identifier, an attribute, an ``import``
alias or a whole string constant (``hostbench/trace.py`` patches attributes
by name) in a real caller:

- ``src/repro`` itself, except ``__init__`` re-exports and ``__all__``, and
  except the bodies of public names that are not reached themselves (a
  test-only helper that calls another test-only helper reaches neither);
- ``tools``, ``benchmarks``, ``examples`` and ``hostbench`` (not their tests);
- a ``python`` fence in ``docs/`` that ``tools/check_docs.py`` executes.

Tests are not callers: code only they reach is deleted with them, unless
:data:`ALLOWED` names it with its reason.

The option rule applies the same callers to switches: a ``True`` / ``False``
default of a public ``def`` (``__init__`` and the methods of public classes
included) must be set off its default by some real call, or the switch
selects a mode only tests run; :data:`ALLOWED_OPTIONS` takes exceptions with
their reasons.  A call sets a switch when it passes a keyword of the
switch's name any value but the default constant.  Like the name rule, this
matches names, not callees: the packs call their loaders through aliases
(``pack.graph_loader(...)``).  A value passed by position or through
``**kwargs`` is not seen, so pass a switch by keyword.

The last rule keeps the modules free of unused imports, which the
critical-only ruff gate does not look for.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("tools", "benchmarks", "examples", "hostbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``"<module under src/repro>::<qualified name>"`` -> why it stays.
ALLOWED = {
    "serve/registry.py::InferenceModel.enable_compile": (
        "the README presents compiled serving; stays until a RunProfile replaces it"
    ),
    "tensor/gradcheck.py::gradcheck": (
        "reference oracle: the kernel tests check backward passes against it"
    ),
    "train/graph_trainer.py::GraphClassificationTrainer.run_fold_fault_tolerant": (
        "the README presents fault-tolerant training; the train-parity recorder runs it"
    ),
}

#: ``"<module under src/repro>::<callable>(<parameter>=)"`` -> why it stays.
ALLOWED_OPTIONS = {}


def _load_check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _names(nodes):
    """Every identifier, attribute, import alias and string constant below ``nodes``."""
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def _is_public(node):
    return isinstance(node, DEFS) and not node.name.startswith("_")


def _is_reexport(node):
    return isinstance(node, ast.ImportFrom) or (
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )


def _units(src):
    """``{key: (name, node, names its body uses)}`` and the names all other code uses."""
    units, other = {}, set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.parse(path.read_text()).body:
            if path.name == "__init__.py" and _is_reexport(node):
                continue
            if not _is_public(node):
                other.update(_names([node]))
                continue
            methods = [m for m in getattr(node, "body", []) if _is_public(m)]
            methods = [m for m in methods if not isinstance(m, ast.ClassDef)]
            rest = [n for n in ast.iter_child_nodes(node) if n not in methods]
            units[f"{rel}::{node.name}"] = (node.name, node, set(_names(rest)))
            for method in methods:
                key = f"{rel}::{node.name}.{method.name}"
                units[key] = (method.name, method, set(_names([method])))
    return units, other


def _caller_trees(root):
    """The parsed real callers outside ``src``: caller folders and executed docs fences."""
    for folder in CALLER_DIRS:
        for path in sorted((root / folder).rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield ast.parse(path.read_text())
    check_docs = _load_check_docs()
    for doc in sorted((root / "docs").glob("*.md")):
        for _, source in check_docs.python_snippets(doc):
            yield ast.parse(source)


def unreached(root, allowed=()):
    """``{key: lines}`` for the public names under ``root/src/repro`` nothing reaches."""
    units, reached = _units(root / "src" / "repro")
    for tree in _caller_trees(root):
        reached.update(_names([tree]))
    done, frontier = set(), [k for k, unit in units.items() if k in allowed or unit[0] in reached]
    while frontier:
        done.update(frontier)
        for key in frontier:
            reached.update(units[key][2])
        frontier = [key for key, unit in units.items() if key not in done and unit[0] in reached]
    return {
        key: node.end_lineno - node.lineno + 1
        for key, (_, node, _) in units.items()
        if key not in done
    }


def test_no_public_name_is_reached_only_from_tests():
    found = unreached(ROOT, ALLOWED)
    assert found == {}, (
        f"{len(found)} public names ({sum(found.values())} lines) that no src, tools, "
        f"benchmarks, examples, hostbench or executed docs snippet reaches: "
        f"{sorted(found)}. Delete them with their tests, or give a real caller; "
        "ALLOWED is for the few with a reason."
    )


def test_every_allowed_name_exists_and_needs_its_entry():
    units, _ = _units(ROOT / "src" / "repro")
    assert set(ALLOWED) <= set(units)
    needed = set(unreached(ROOT))
    assert set(ALLOWED) <= needed, f"reached without an entry: {sorted(set(ALLOWED) - needed)}"


def test_the_scan_flags_an_orphan_and_a_name_only_all_reaches(tmp_path):
    package = tmp_path / "src" / "repro" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from repro.pkg.mod import exported, orphan, patched\n"
        '__all__ = ["exported", "orphan", "patched"]\n'
    )
    (package / "mod.py").write_text(
        "def orphan():\n    return 1\n\n\n"
        "def patched():\n    return 2\n\n\n"
        "def exported():\n    return 3\n\n\n"
        "def used():\n    return 4\n"
    )
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "caller.py").write_text(
        "from repro.pkg.mod import used\n\nsetattr(used, 'patched', None)\n"
    )
    (tmp_path / "docs").mkdir()
    assert unreached(tmp_path) == {"pkg/mod.py::orphan": 2, "pkg/mod.py::exported": 2}

    # A name only an unreached body uses is unreached too, until that body is allowed.
    (package / "helper.py").write_text(
        "class Helper:\n    def run(self):\n        return orphan_helper()\n\n\n"
        "def orphan_helper():\n    return 5\n"
    )
    assert set(unreached(tmp_path)) == {
        "pkg/mod.py::orphan", "pkg/mod.py::exported",
        "pkg/helper.py::Helper", "pkg/helper.py::Helper.run", "pkg/helper.py::orphan_helper",
    }
    allowed = {"pkg/helper.py::Helper.run"}
    assert set(unreached(tmp_path, allowed)) == {
        "pkg/mod.py::orphan", "pkg/mod.py::exported", "pkg/helper.py::Helper",
    }


def _tree(root, files):
    """Write ``{path relative to root: source}`` and return ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


TARGET = {"src/repro/pkg/mod.py": "def target():\n    return 1\n"}
USES = "from repro.pkg.mod import target\n\ntarget()\n"

#: One real caller each, every one enough to reach ``target``.
REACHING = {
    "private src body": {"src/repro/pkg/user.py": "def _main():\n    return target()\n"},
    "reached public body": {
        "src/repro/pkg/user.py": "def main():\n    return target()\n",
        "tools/run.py": "from repro.pkg.user import main\n",
    },
    "attribute": {"tools/run.py": "import repro.pkg.mod\n\nrepro.pkg.mod.target()\n"},
    "import alias": {"benchmarks/bench.py": "from repro.pkg.mod import target as run\n"},
    "string constant": {"hostbench/trace.py": 'PATCHED = ("target",)\n'},
    "example": {"examples/demo.py": USES},
    "executed docs fence": {"docs/guide.md": f"```python\n{USES}```\n"},
}

#: Mentions that are not callers: ``target`` stays an orphan.
NOT_REACHING = {
    "tests": {"tests/test_mod.py": USES},
    "a caller folder's tests": {"hostbench/tests/test_trace.py": USES},
    "no-run docs fence": {"docs/guide.md": f"```python no-run\n{USES}```\n"},
    "shell docs fence": {"docs/guide.md": "```bash\npython -m target\n```\n"},
    "README fence": {"README.md": f"```python\n{USES}```\n"},
    "__init__ re-export": {"src/repro/pkg/__init__.py": "from repro.pkg.mod import target\n"},
    "__all__": {"src/repro/pkg/__init__.py": '__all__ = ["target"]\n'},
    "part of a string": {"tools/run.py": 'HELP = "call target() first"\n'},
    "comment": {"tools/run.py": "# target()\n"},
}


@pytest.mark.parametrize("files", REACHING.values(), ids=list(REACHING))
def test_a_real_caller_reaches_a_name(tmp_path, files):
    assert unreached(_tree(tmp_path, {**TARGET, **files})) == {}


@pytest.mark.parametrize("files", NOT_REACHING.values(), ids=list(NOT_REACHING))
def test_a_mention_that_is_not_a_caller_reaches_nothing(tmp_path, files):
    assert unreached(_tree(tmp_path, {**TARGET, **files})) == {"pkg/mod.py::target": 2}


CLASSES = (
    "def _private():\n    pass\n\n\n"
    "class _Hidden:\n    def method(self):\n        pass\n\n\n"
    "class Public:\n"
    "    def _helper(self):\n        pass\n\n"
    "    def method(self):\n        pass\n\n"
    "    class Nested:\n        pass\n"
)


def test_private_names_and_nested_classes_are_not_units(tmp_path):
    files = {"src/repro/pkg/mod.py": CLASSES, "tools/run.py": "Public()\n"}
    assert unreached(_tree(tmp_path, files)) == {"pkg/mod.py::Public.method": 2}


def test_a_class_and_each_public_method_are_reached_separately(tmp_path):
    files = {"src/repro/pkg/mod.py": CLASSES, "tools/run.py": "obj.method()\n"}
    assert unreached(_tree(tmp_path, files)) == {"pkg/mod.py::Public": 9}


def _switches(src):
    """``{key: (parameter, default)}`` for each ``True`` / ``False`` default of a public
    ``def``, method or ``__init__`` under ``src``."""
    found = {}
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        for node in ast.parse(path.read_text()).body:
            if not _is_public(node):
                continue
            funcs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                funcs = [(f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and (_is_public(m) or m.name == "__init__")]
            for qual, func in funcs:
                args = func.args
                positional = args.posonlyargs + args.args
                pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
                pairs += zip(args.kwonlyargs, args.kw_defaults)
                for arg, default in pairs:
                    if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                        found[f"{rel}::{qual}({arg.arg}=)"] = (arg.arg, default.value)
    return found


def dead_options(root, allowed=()):
    """Sorted keys of the switches under ``root/src/repro`` no real call sets off default."""
    src = root / "src" / "repro"
    trees = [ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))]
    passed = {}
    for tree in [*trees, *_caller_trees(root)]:
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg:
                passed.setdefault(node.arg, []).append(node.value)
    return sorted(
        key
        for key, (param, default) in _switches(src).items()
        if key not in allowed
        and all(isinstance(v, ast.Constant) and v.value is default for v in passed.get(param, ()))
    )


def test_no_public_switch_is_set_only_from_tests():
    found = dead_options(ROOT, ALLOWED_OPTIONS)
    assert found == [], (
        f"{len(found)} boolean options that no src, tools, benchmarks, examples, "
        f"hostbench or executed docs snippet sets off its default: {found}. Delete "
        "the mode each selects with its tests and keep the default's behaviour; "
        "ALLOWED_OPTIONS is for the few with a reason."
    )
    assert set(ALLOWED_OPTIONS) <= set(dead_options(ROOT)), "an ALLOWED_OPTIONS entry is unused"


SWITCHES = {"src/repro/pkg/mod.py": (
    "def run(x, fast=False, *, loud=True, name=None):\n    return x\n\n\n"
    "class Engine:\n    def __init__(self, cached=False):\n        pass\n\n"
    "    def go(self, eager=True):\n        pass\n\n"
    "    def _stop(self, force=False):\n        pass\n\n\n"
    "class _Hidden:\n    def __init__(self, flag=False):\n        pass\n\n\n"
    "def _private(flag=False):\n    pass\n"
)}
EVERY_SWITCH = [
    "pkg/mod.py::Engine.__init__(cached=)", "pkg/mod.py::Engine.go(eager=)",
    "pkg/mod.py::run(fast=)", "pkg/mod.py::run(loud=)",
]

#: One real call each, and the switch it sets.
SETTING = {
    "keyword": ("run(1, fast=True)\n", "pkg/mod.py::run(fast=)"),
    "keyword-only": ("run(1, loud=False)\n", "pkg/mod.py::run(loud=)"),
    "non-constant": ("run(1, fast=flag)\n", "pkg/mod.py::run(fast=)"),
    "__init__ through its class": ("Engine(cached=True)\n", "pkg/mod.py::Engine.__init__(cached=)"),
    "method": ("engine.go(eager=False)\n", "pkg/mod.py::Engine.go(eager=)"),
    "an alias of the callee": ("loader = pack.engine(cached=True)\n",
                               "pkg/mod.py::Engine.__init__(cached=)"),
}

#: Calls that set no switch off its default.
NOT_SETTING = {
    "the default spelled out": "run(1, fast=False, loud=True)\nEngine(cached=False)\n",
    "positional": "run(1, True)\nengine.go(False)\n",
    "**kwargs": "run(1, **{'fast': True})\n",
    "another keyword": "run(1, name=True)\n",
}


@pytest.mark.parametrize("source, key", SETTING.values(), ids=list(SETTING))
def test_a_real_call_sets_a_switch(tmp_path, source, key):
    root = _tree(tmp_path, {**SWITCHES, "tools/run.py": source})
    assert dead_options(root) == [k for k in EVERY_SWITCH if k != key]


@pytest.mark.parametrize("source", NOT_SETTING.values(), ids=list(NOT_SETTING))
def test_a_call_that_keeps_the_default_sets_nothing(tmp_path, source):
    assert dead_options(_tree(tmp_path, {**SWITCHES, "tools/run.py": source})) == EVERY_SWITCH


SET = "target(fast=True)\n"

#: Files that call ``target(fast=True)``, and whether they are real callers.
SWITCH_CALLERS = {
    "src body": ({"src/repro/pkg/user.py": f"def _main():\n    return {SET}"}, True),
    "example": ({"examples/demo.py": SET}, True),
    "hostbench": ({"hostbench/run.py": SET}, True),
    "executed docs fence": ({"docs/guide.md": f"```python\n{SET}```\n"}, True),
    "tests": ({"tests/test_mod.py": SET}, False),
    "a caller folder's tests": ({"hostbench/tests/test_run.py": SET}, False),
    "no-run docs fence": ({"docs/guide.md": f"```python no-run\n{SET}```\n"}, False),
    "README fence": ({"README.md": f"```python\n{SET}```\n"}, False),
}


@pytest.mark.parametrize("files, real", SWITCH_CALLERS.values(), ids=list(SWITCH_CALLERS))
def test_the_switch_rule_has_the_name_rules_callers(tmp_path, files, real):
    target = {"src/repro/pkg/mod.py": "def target(fast=False):\n    return 1\n"}
    found = dead_options(_tree(tmp_path, {**target, **files}))
    assert found == ([] if real else ["pkg/mod.py::target(fast=)"])


def _unused_imports(tree):
    """Names a module imports but never reads; a quoted type counts as a read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    types = [node.annotation for node in ast.walk(tree) if getattr(node, "annotation", None)]
    types += [node.returns for node in ast.walk(tree) if getattr(node, "returns", None)]
    types += [node for node in ast.walk(tree) if isinstance(node, ast.Subscript)]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in types:
        for leaf in ast.walk(node):
            if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                try:
                    quoted = ast.parse(leaf.value, mode="eval")
                except SyntaxError:  # a subscript key, not a type
                    continue
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return {(name, line) for name, line in bound.items() if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    src = ROOT / "src" / "repro"
    found = {
        (path.relative_to(src).as_posix(), name, line)
        for path in sorted(src.rglob("*.py"))
        if path.name != "__init__.py"
        for name, line in _unused_imports(ast.parse(path.read_text()))
    }
    assert found == set(), f"unused imports (module, name, line): {sorted(found)}"


#: ``source -> the (name, line) pairs the import check flags``.
IMPORTS = {
    "unused": ("import os\n", {("os", 1)}),
    "alias": ("import numpy as np\n", {("np", 1)}),
    "one name of several": ("from typing import Dict, List\n\nx: Dict = {}\n", {("List", 1)}),
    "relative": ("from . import sibling\n", {("sibling", 1)}),
    "its own line": ("import sys\n\nimport os\n\nsys.exit()\n", {("os", 3)}),
    "a plain string is no use": ("import os\n\nNAME = 'os'\n", {("os", 1)}),
    "dotted binds its head": ("import os.path\n\nos.path.join('a')\n", set()),
    "__future__": ("from __future__ import annotations\n", set()),
    "function body": ("import os\n\n\ndef f():\n    return os.sep\n", set()),
    "quoted return type": ("from t import Tensor\n\n\ndef f() -> 'Tensor':\n    pass\n", set()),
    "subscript key that is no type": ("from t import FRAMES\n\nFRAMES['a b!']\n", set()),
}


@pytest.mark.parametrize("source, flagged", IMPORTS.values(), ids=list(IMPORTS))
def test_the_import_check(source, flagged):
    assert _unused_imports(ast.parse(source)) == flagged


def test_the_import_check_reads_quoted_types():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom typing import Dict, List\n\n"
        "PathLike = Dict[str, 'np.ndarray']\nnames: 'List[str]' = []\n"
    )
    assert _unused_imports(tree) == {("os", 1)}
