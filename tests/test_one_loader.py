"""Guard: a mini-batch is loaded in one place.

The code around collation — order, shuffle, shard, chunk,
the ``data_loading`` phase and the per-graph fetch charge — is the same for
both framework packs and lives in ``repro.loader``; a pack supplies only
its collation.  It was once written out in six modules (both packs' graph
loaders and neighbor loaders, the collate-once loader and the serving
registry).  The same AST allow-list pattern as
``tests/test_one_charging_site.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules that may open the ``data_loading`` phase: the shared loader, the
#: prefetcher's wait on a ready batch, and halo exchange's per-part copy.
PHASE_OPENERS = {"loader.py", "device/prefetch.py", "scale/halo.py"}


def _files():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _opens_data_loading(tree):
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "phase"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "data_loading"
        for node in ast.walk(tree)
    )


def test_data_loading_phase_is_opened_only_by_the_shared_loader():
    found = {name for name, tree in _files() if _opens_data_loading(tree)}
    assert found == PHASE_OPENERS, (
        f"unexpected: {sorted(found - PHASE_OPENERS)}, stale allow-list: "
        f"{sorted(PHASE_OPENERS - found)}. Collate inside repro.loader.loading (or a "
        "GraphLoader / SeedLoader subclass), which opens the phase and charges the fetch."
    )


def test_fetch_charge_is_read_only_by_the_shared_loader():
    found = {
        name
        for name, tree in _files()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "fetch_per_graph"
    }
    assert found == {"loader.py"}, (
        f"fetch_per_graph read in {sorted(found)}: the per-graph fetch is charged by "
        "repro.loader alone."
    )
