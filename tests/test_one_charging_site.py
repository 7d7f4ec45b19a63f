"""Guard: ``repro.device.Device`` is the only code that turns work into charges.

Replay once re-implemented the launch charge and the profiler record, and
the fault injector the host charge; the copies drifted from ``Device`` (fused
kernels never reached the default stream's ``busy``, a fused head or a failed
dispatch inside ``offload`` was paid by the frontend clock instead of the
worker).  The hooks now only decide, and the rules below keep the charging
code in one place — the same AST allow-list pattern as
``tests/test_no_ufunc_at.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
DEVICE = SRC / "device"


def _files():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _device_privates():
    """Underscore names ``Device`` defines: its methods and ``self._x`` slots."""
    tree = ast.parse((DEVICE / "core.py").read_text())
    device = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Device")
    names = set()
    for node in ast.walk(device):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def _attribute_uses(tree, attrs, skip_self=False):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            if not (skip_self and ast.unparse(node.value) == "self"):
                yield node.attr


def test_clock_is_advanced_by_work_only_inside_repro_device():
    found = {
        (name, attr)
        for name, tree in _files()
        if not name.startswith("device/")
        for attr in _attribute_uses(tree, {"advance_host", "advance_gpu"})
    }
    assert found == set(), (
        f"outside repro.device: {sorted(found)}. Charge host work with Device.host and "
        "kernels with Device.launch, so scopes, offload workers and streams see it — see "
        "docs/cost_model.md, 'Streams, events, and overlap accounting'."
    )


def test_kernel_records_are_built_in_one_place():
    found = {
        name
        for name, tree in _files()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("KernelRecord")
    }
    assert found == {"device/core.py"}, (
        f"KernelRecord built in {sorted(found)}. Use Device.record_kernel, which stamps "
        "scope, phase, stream, timestamp and memory the one way every record shares."
    )


def test_no_device_private_is_used_outside_repro_device():
    privates = _device_privates()
    assert {"_charge", "_inject", "_attribute_scope", "_offload"} <= privates
    found = {
        (name, attr)
        for name, tree in _files()
        if not name.startswith("device/")
        for attr in _attribute_uses(tree, privates, skip_self=True)
    }
    assert found == set(), (
        f"Device privates used from outside repro.device: {sorted(found)}. A hook "
        "decides and the device charges (Device.launch hands a replay session its "
        "_charge); go through Device's public methods."
    )


def test_compile_and_faults_never_touch_the_clock_or_a_stream():
    found = {
        (name, attr)
        for name, tree in _files()
        if name.startswith(("compile/", "faults/"))
        for attr in _attribute_uses(tree, {"clock", "enqueue", "_attribute_scope"})
    }
    assert found == set(), (
        f"{sorted(found)}: repro.compile and repro.faults decide what a launch costs; "
        "Device charges it."
    )
