"""Record the pinned launch-accounting fixture (``launch_accounting.json``).

One small GCN training step is driven down each path ``Device.launch`` can
take — eager on the default stream, inside ``on(stream)``, inside
``offload``, under capture and under replay — and the ``float.hex()`` of
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
from typing import Dict

import numpy as np

from repro.datasets import enzymes
from repro.device import Device, use_device
from repro.models import graph_config
from repro.nn import cross_entropy
from repro.optim import Adam
from repro.packs import get_pack
from repro.train.loop import train_step

FIXTURE = Path(__file__).with_name("launch_accounting.json")
MODES = ("eager", "on_stream", "offload", "capture", "replay")


def _hex(value: float) -> str:
    return float(value).hex()


def _hex_items(table: Dict) -> Dict[str, str]:
    return {"/".join(key) if isinstance(key, tuple) else key: _hex(v) for key, v in table.items()}


def run(mode: str, profile: bool) -> Dict:
    """Everything ``mode``'s step left on a fresh device, profiler on or off."""
    device = Device()
    device.profiler.enabled = profile
    dataset = enzymes(seed=0, num_graphs=6)
    pack = get_pack("pygx")
    with use_device(device):
        config = graph_config(
            "gcn", in_dim=dataset.num_features, n_classes=dataset.num_classes,
            n_layers=1, hidden=8, out_dim=8,
        )
        model = pack.build_model(config, np.random.default_rng(0))
        optimizer = Adam(model.parameters(), lr=config.lr)
        compiled = mode in ("capture", "replay")
        step = train_step(model, optimizer, device.clock, cross_entropy, compile=compiled)

        def one_step() -> None:
            with device.clock.phase("data_loading"):
                inputs, labels = pack.collate(dataset.graphs)
            step(inputs, labels)

        if mode == "on_stream":
            with device.on(device.stream("compute")):
                one_step()
        elif mode == "offload":
            worker, copy = device.stream("worker"), device.stream("copy")
            with device.offload(worker, copy), device.on(device.stream("compute")):
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
