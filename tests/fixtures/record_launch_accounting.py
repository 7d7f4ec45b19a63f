"""Record the pinned launch-accounting fixture (``launch_accounting.json``).

One small GCN training step is driven down each path ``Device.launch`` can
take — eager on the default stream, inside ``on(stream)``, inside
``offload``, under capture, under replay, and replayed inside ``offload``
(captured there first) — and the ``float.hex()`` of
everything the device accounted is written out together with every
profiler record, field for field.  ``tests/device/test_launch_accounting.py``
asserts exact equality against the committed file, with the profiler on
and (records aside) off, so a change to the launch path that moves a
charge, a scope key or a record field fails tier-1.

Re-record only at a commit whose numbers are the intended reference::

    PYTHONPATH=src python tests/fixtures/record_launch_accounting.py
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Callable, Dict, Tuple

import numpy as np

from repro.datasets import enzymes
from repro.device import Device, use_device
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.optim import Adam
from repro.packs import get_pack
from repro.train.loop import train_step

FIXTURE = Path(__file__).with_name("launch_accounting.json")
MODES = ("eager", "on_stream", "offload", "capture", "replay", "replay_offload")
#: Modes whose whole step runs inside ``offload(worker, copy)`` + ``on(compute)``.
OFFLOADED = ("offload", "replay_offload")
#: Streams that carry host work (worker) and copies, not kernels.
HOST_STREAMS = ("worker", "copy")


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_items(table: Dict) -> Dict[str, str]:
    return {"/".join(key) if isinstance(key, tuple) else key: _hex(v) for key, v in table.items()}


def gcn_step(device: Device, compiled: bool) -> Tuple[Callable[[], None], Callable]:
    """``(one_step, step)``: one small GCN training step (collate, then
    ``step``) on ``device``.  Build and call it under ``use_device(device)``."""
    dataset = enzymes(seed=0, num_graphs=6)
    pack = get_pack("pygx")
    config = graph_config(
        "gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes,
        n_layers=1, hidden=8, out_dim=8,
    )
    model = pack.build_model(config, np.random.default_rng(0))
    optimizer = Adam(model.parameters(), lr=config.lr)
    step = train_step(model, optimizer, device.clock, cross_entropy, compile=compiled)

    def one_step() -> None:
        with device.clock.phase("data_loading"):
            inputs, labels = pack.collate(dataset.graphs)
        step(inputs, labels)

    return one_step, step


def run(mode: str, profile: bool) -> Dict:
    """Everything ``mode``'s step left on a fresh device, profiler on or off."""
    device = Device()
    device.profiler.enabled = profile
    with use_device(device):
        one_step, _ = gcn_step(device, compiled=mode in ("capture", "replay", "replay_offload"))
        if mode == "on_stream":
            with device.on(device.stream("compute")):
                one_step()
        elif mode in OFFLOADED:
            worker, copy = (device.stream(name) for name in HOST_STREAMS)
            with device.offload(worker, copy), device.on(device.stream("compute")):
                one_step()
                if mode == "replay_offload":
                    one_step()
        else:
            one_step()
            if mode == "replay":
                one_step()
        device.synchronize()

    clock = device.clock
    return {
        "clock": {
            name: _hex(getattr(clock, name)) for name in ("elapsed", "gpu_busy", "wait", "idle")
        },
        "phase_elapsed": _hex_items(clock.phase_elapsed),
        "phase_gpu_busy": _hex_items(clock.phase_gpu_busy),
        "scope_elapsed": _hex_items(device.scope_elapsed),
        "streams": {s.name: [_hex(s.busy), _hex(s.ready)] for s in device.streams},
        "memory_peak": int(device.memory.peak),
        "records": [
            [
                r.name, "/".join(r.scope), _hex(r.duration), _hex(r.flops), _hex(r.bytes_moved),
                _hex(r.timestamp), int(r.memory), r.stream, r.phase,
            ]
            for r in device.profiler.records
        ],
    }


if __name__ == "__main__":
    recorded = {mode: run(mode, profile=True) for mode in MODES}
    text = json.dumps(recorded, indent=1, sort_keys=True)
    # One record (innermost list) per line keeps the file diffable.
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: " ".join(m.group().split()), text)
    FIXTURE.write_text(text + "\n")
    print(f"wrote {sum(len(r['records']) for r in recorded.values())} records to {FIXTURE}")
