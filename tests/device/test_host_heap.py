"""Host heap retention (``repro.device.memory.HOST_HEAP_RETAINED``), seen from outside.

glibc's defaults give a step's freed activations back to the kernel and
fault them in again on the next step; importing ``repro.device`` raises the
trim and mmap thresholds so they stay mapped.  Every case runs in a fresh
interpreter: the allocator's settings are per process and cannot be undone.
See docs/architecture.md, "A step keeps the host memory it already had".
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent.parent / "src"

#: What glibc reads its malloc settings from; each is the operator's opt-out.
MALLOC_SETTINGS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_", "GLIBC_TUNABLES")

LIBC = platform.libc_ver()
needs_glibc = pytest.mark.skipif(
    LIBC[0] != "glibc" or not os.path.exists("/proc/self/statm"),
    reason=f"mallopt thresholds are glibc's; this libc is {LIBC!r}",
)

#: Fill and drop six 8 MB float32 arrays — activation-sized, each under the
#: 32 MiB mmap threshold — and report resident MB at the high-water mark and after.
FILL_AND_DROP = """
import json, os
{imports}
import numpy as np

def resident_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

arrays = [np.ones(2_000_000, np.float32) for _ in range(6)]
high = resident_mb()
del arrays
print(json.dumps({{"flag": {flag}, "dropped_mb": high - resident_mb()}}))
"""


def _run(script, **extra_env):
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_SETTINGS}
    env.update(PYTHONPATH=str(SRC), **extra_env)
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _fill_and_drop(with_repro, **extra_env):
    script = FILL_AND_DROP.format(
        imports="import repro.device" if with_repro else "",
        flag="repro.device.memory.HOST_HEAP_RETAINED" if with_repro else "None",
    )
    return _run(script, **extra_env)


@needs_glibc
def test_freed_arrays_stay_resident_after_importing_repro_device():
    bare = _fill_and_drop(with_repro=False)
    assert bare["dropped_mb"] >= 40, f"a bare interpreter no longer trims: {bare}"
    kept = _fill_and_drop(with_repro=True)
    assert kept["flag"] is True
    assert kept["dropped_mb"] <= 8, (
        f"48 MB of freed arrays went back to the kernel ({kept}); the next step faults them "
        "in again — see docs/architecture.md, 'A step keeps the host memory it already had'."
    )


@needs_glibc
@pytest.mark.parametrize(
    "setting",
    [
        {"MALLOC_TRIM_THRESHOLD_": "131072"},
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"MALLOC_TOP_PAD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.trim_threshold=131072"},
    ],
    ids=lambda setting: next(iter(setting)),
)
def test_an_operator_malloc_setting_leaves_the_allocator_alone(setting):
    seen = _fill_and_drop(with_repro=True, **setting)
    assert seen["flag"] is False
    assert seen["dropped_mb"] >= 40, f"the allocator was retuned despite {setting}: {seen}"


def test_import_survives_a_process_without_a_loadable_libc():
    seen = _run(
        """
import ctypes, json

def no_libc(*args, **kwargs):
    raise OSError("cannot load library")

ctypes.CDLL = no_libc
import repro.device
print(json.dumps({"flag": repro.device.memory.HOST_HEAP_RETAINED}))
"""
    )
    assert seen["flag"] is False


def test_mallopt_is_called_once_per_process():
    """Both thresholds, mmap first (the one glibc can refuse), never again on re-import or reload."""
    seen = _run(
        """
import ctypes, importlib, json

calls = []

class FakeMallopt:
    def __call__(self, parameter, value):
        calls.append((parameter, value))
        return 1

class FakeLibc:
    mallopt = FakeMallopt()

ctypes.CDLL = lambda name, *args, **kwargs: FakeLibc()
import repro.device
import repro.device.memory
importlib.reload(repro.device.memory)
importlib.reload(repro.device)
print(json.dumps({"flag": repro.device.memory.HOST_HEAP_RETAINED, "calls": calls}))
"""
    )
    assert seen["flag"] is True
    assert seen["calls"] == [[-3, 32 << 20], [-1, 1 << 30]]
