"""The five workloads: what one lap runs, and what it must produce.

Every workload is a ``setup(seed)`` that builds what the laps reuse and a
``lap(state)`` that runs one identical, fixed piece of work on fresh
:class:`~repro.device.Device` objects through the library's public entry
points.  ``--seed`` feeds only the dataset and trace generators; training
seeds stay fixed, so every lap of a run must produce bit-equal simulated
statistics and losses — that is the first correctness check.

A lap returns a plain dict (the *record*): simulated statistics, losses,
request accounting and the count of operations attempted / failed.  It
holds no host timing, so two records of one run compare with ``==``.

``SIZES`` are tuned so a lap takes about one host second on the 2-core
box this was sized on: the benchmark contract caps a run at well under
30 s including set-up, and the median needs a dozen laps to be steady.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List

from repro.datasets import GraphClassificationDataset, cora, enzymes
from repro.device import Device
from repro.train import GraphClassificationTrainer, NodeClassificationTrainer

PACKS = ("pygx", "dglx")

#: Lap sizes.  ``hostbench/golden.json`` stores the copy its losses were
#: recorded under; a mismatch means the golden file is stale.
SIZES: Dict[str, Dict[str, float]] = {
    "train_pygx": {"num_graphs": 160, "batch_size": 64, "n_epochs": 1},
    "train_dglx": {"num_graphs": 160, "batch_size": 64, "n_epochs": 1},
    "train_fullgraph": {"max_epochs": 3},
    "train_compiled": {"num_graphs": 128, "batch_size": 32, "n_epochs": 1},
    "serve_replay": {
        "num_graphs": 240,
        "train_epochs": 1,
        "serve_requests": 300,
        "serve_rate_rps": 2000.0,
        "fleet_requests": 600,
        "fleet_replicas": 4,
    },
}

#: pygx and dglx run the same GAT arithmetic, so their losses must agree
#: to the tolerance tests/dglx/test_dglx_models.py holds them to.  GCN is
#: excluded: the two lowerings differ by design (pygx's GCNConv adds self
#: loops, dglx's GraphConv normalises the features on both sides instead).
CROSS_PACK_MODEL = "gat"
CROSS_PACK_ATOL = 1e-3


@dataclass
class State:
    """What ``setup`` built for the laps to reuse."""

    sizes: Dict[str, float]
    dataset: object
    #: Host seconds inside the dataset factory (``datasets.build_s``).
    build_s: float
    #: Graphs the tensor micro-probes batch: the workload's first real batch.
    probe_graphs: List
    extra: Dict[str, object]


@dataclass(frozen=True)
class Workload:
    name: str
    #: What one item of ``items_per_host_s`` is.
    item: str
    why: str
    setup: Callable[[int], State]
    lap: Callable[[State], Dict]


def size_matched_enzymes(seed: int, num_graphs: int) -> GraphClassificationDataset:
    """Synthetic ENZYMES for ``seed`` whose graph sizes repeat from seed to seed.

    ``enzymes`` draws node counts from a lognormal, so the total size of a
    160-graph set varies by +-10 % between seeds, and lap time, peak memory
    and simulated time with it: seed-to-seed spread would measure the draw,
    not the host.  Graph ``i`` here is a graph of ``enzymes(seed, 3n)`` with
    (almost always exactly) the node count of graph ``i`` of ``enzymes(0, n)``,
    so topology, features and labels follow the seed while every batch keeps
    its size (total nodes within 0.3 %, edges within 1 %).
    """
    pool = enzymes(seed, num_graphs=3 * num_graphs)
    buckets: Dict[int, List] = defaultdict(list)
    for graph in pool.graphs:
        buckets[graph.num_nodes].append(graph)
    chosen = []
    for target in enzymes(0, num_graphs=num_graphs).graphs:
        size = min((s for s in buckets if buckets[s]), key=lambda s: abs(s - target.num_nodes))
        chosen.append(buckets[size].pop())
    return GraphClassificationDataset(pool.name, chosen, pool.num_classes)


def _timed(factory: Callable, *args, **kwargs):
    start = perf_counter()
    built = factory(*args, **kwargs)
    return built, perf_counter() - start


def _new_record() -> Dict:
    return {
        "sim_s": 0.0,
        "sim_gpu_busy_s": 0.0,
        "sim_peak_mem_mb": 0.0,
        "items": 0,
        "attempted": 0,
        "failed": 0,
        "losses": {},
        "accounting": {},
        "problems": [],
    }


def _charge_device(record: Dict, device: Device) -> None:
    record["sim_s"] += device.clock.elapsed
    record["sim_gpu_busy_s"] += device.clock.gpu_busy
    record["sim_peak_mem_mb"] = max(record["sim_peak_mem_mb"], device.memory.peak / 2**20)


def _train_outcome(record: Dict, cell: str, device: Device, result, steps_per_epoch: int, items: int) -> None:
    """Fold one trainer run into the record; a non-finite epoch fails its steps."""
    _charge_device(record, device)
    for epoch in result.epochs:
        record["attempted"] += steps_per_epoch
        if not math.isfinite(epoch.train_loss):
            record["failed"] += steps_per_epoch
    record["items"] += items * len(result.epochs)
    record["losses"][cell] = result.epochs[-1].train_loss


def _check_cross_pack(record: Dict) -> None:
    losses = record["losses"]
    pair = [losses.get(f"{pack}/{CROSS_PACK_MODEL}") for pack in PACKS]
    if None not in pair and not abs(pair[0] - pair[1]) <= CROSS_PACK_ATOL:
        record["problems"].append(
            f"{CROSS_PACK_MODEL} loss differs across packs: pygx {pair[0]!r} vs dglx {pair[1]!r}"
        )


# ----------------------------------------------------------------------
# mini-batch graph classification (train_pygx, train_dglx, train_compiled)
# ----------------------------------------------------------------------
def _enzymes_setup(name: str) -> Callable[[int], State]:
    def setup(seed: int) -> State:
        import repro.dglx  # noqa: F401 - the trainers import the packs lazily;
        import repro.pygx  # noqa: F401   importing here bills them to setup_s.
        import repro.compile  # noqa: F401

        sizes = SIZES[name]
        dataset, build_s = _timed(size_matched_enzymes, seed, sizes["num_graphs"])
        return State(sizes, dataset, build_s, dataset.graphs[: sizes["batch_size"]], {})

    return setup


def _graph_lap(cells, **modes) -> Callable[[State], Dict]:
    def lap(state: State) -> Dict:
        record = _new_record()
        sizes = state.sizes
        # measure_epoch trains on the first 80 % of a seeded permutation.
        n_train = max(int(len(state.dataset) * 0.8), 1)
        steps = math.ceil(n_train / sizes["batch_size"])
        for pack, model in cells:
            trainer = GraphClassificationTrainer(
                pack, model, state.dataset, batch_size=sizes["batch_size"], device=Device(), **modes
            )
            result = trainer.measure_epoch(n_epochs=sizes["n_epochs"])
            _train_outcome(record, f"{pack}/{model}", trainer.device, result, steps, n_train)
        _check_cross_pack(record)
        return record

    return lap


# ----------------------------------------------------------------------
# full-graph node classification (train_fullgraph)
# ----------------------------------------------------------------------
def _cora_setup(seed: int) -> State:
    import repro.dglx  # noqa: F401
    import repro.pygx  # noqa: F401

    dataset, build_s = _timed(cora, seed)
    return State(SIZES["train_fullgraph"], dataset, build_s, [dataset.graph], {})


def _fullgraph_lap(state: State) -> Dict:
    record = _new_record()
    for pack in PACKS:
        for model in ("gcn", "gat"):
            trainer = NodeClassificationTrainer(
                pack, model, state.dataset, max_epochs=state.sizes["max_epochs"], device=Device()
            )
            _train_outcome(record, f"{pack}/{model}", trainer.device, trainer.run(), 1, 1)
    _check_cross_pack(record)
    return record


# ----------------------------------------------------------------------
# serving (serve_replay)
# ----------------------------------------------------------------------
def _serve_setup(seed: int) -> State:
    from repro.bench.runner import trained_inference_model
    from repro.fleet import bursty_multitenant_trace
    from repro.serve import poisson_trace

    sizes = SIZES["serve_replay"]
    dataset, build_s = _timed(size_matched_enzymes, seed, sizes["num_graphs"])
    inference = {
        pack: trained_inference_model(
            pack, "gcn", "enzymes", num_graphs=sizes["num_graphs"], train_epochs=sizes["train_epochs"]
        )
        for pack in PACKS
    }
    extra = {
        "inference": inference,
        "arrivals": poisson_trace(sizes["serve_requests"], sizes["serve_rate_rps"], rng=seed),
        "fleet_trace": bursty_multitenant_trace(
            n_samples=len(dataset), n_requests=sizes["fleet_requests"], seed=seed
        ),
    }
    return State(sizes, dataset, build_s, dataset.graphs[:32], extra)


def _serve_outcome(record: Dict, part: str, device: Device, result) -> None:
    _charge_device(record, device)
    counts = {
        "n": result.n_requests,
        "completed": result.completed,
        "shed": result.shed,
        "failed": result.failed,
    }
    record["accounting"][part] = counts
    record["attempted"] += result.n_requests
    # A refused request misses any latency limit, so it fails like an error.
    record["failed"] += result.shed + result.failed
    record["items"] += result.n_requests
    if result.completed + result.shed + result.failed != result.n_requests:
        record["problems"].append(f"{part}: requests unaccounted for: {counts}")
    record["sim_p99_ms"] = max(record.get("sim_p99_ms", 0.0), result.p99 * 1e3)


def _serve_lap(state: State) -> Dict:
    from repro.bench.fleet import fleet_simulator
    from repro.serve import ServeSimulator

    record = _new_record()
    graphs = state.dataset.graphs
    batch_sizes = []
    record["serve_batches"] = 0
    for pack, inference in state.extra["inference"].items():
        simulator = ServeSimulator(inference, device=Device())
        result = simulator.replay(graphs, state.extra["arrivals"])
        _serve_outcome(record, f"serve/{pack}", simulator.device, result)
        batch_sizes.append(result.mean_batch_size)
        record["serve_batches"] += sum(result.batch_size_histogram.values())
    fleet = fleet_simulator(
        state.extra["inference"]["pygx"], n_replicas=state.sizes["fleet_replicas"], policy="p2c"
    )
    result = fleet.replay(graphs, state.extra["fleet_trace"])
    _serve_outcome(record, "fleet", fleet.device, result)
    if not result.no_silent_loss:
        record["problems"].append("fleet: a tenant's requests are unaccounted for")
    completed = sum(part["completed"] for part in record["accounting"].values())
    record["sim_goodput_rps"] = completed / record["sim_s"]
    record["serve_mean_batch"] = sum(batch_sizes) / len(batch_sizes)
    record["fleet_cache_hit_rate"] = result.cache_hit_rate
    return record


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "train_pygx",
            "graphs",
            "Mini-batch GCN+GAT epoch through pygx's COO gather/scatter path: ufunc.at-bound, "
            "where a scatter-kernel rewrite should show most.",
            _enzymes_setup("train_pygx"),
            _graph_lap([("pygx", "gcn"), ("pygx", "gat")]),
        ),
        Workload(
            "train_dglx",
            "graphs",
            "The same epoch through dglx's CSR GSpMM/segment kernels and heterograph collation; "
            "a scatter-path gain that costs the CSR path shows here.",
            _enzymes_setup("train_dglx"),
            _graph_lap([("dglx", "gcn"), ("dglx", "gat")]),
        ),
        Workload(
            "train_fullgraph",
            "epochs",
            "Full-batch Cora, both packs: one big graph, wide dense GEMMs, no collation; "
            "sparse-kernel and loader work should leave it unmoved.",
            _cora_setup,
            _fullgraph_lap,
        ),
        Workload(
            "train_compiled",
            "graphs",
            "GAT on both packs with compile=True, prefetch=True: the only workload that runs "
            "capture/replay and the prefetch streams.",
            _enzymes_setup("train_compiled"),
            _graph_lap([("pygx", "gat"), ("dglx", "gat")], compile=True, prefetch=True),
        ),
        Workload(
            "serve_replay",
            "requests",
            "Forward-only open-loop serving (both packs) and a 4-replica cached fleet: no backward "
            "kernel runs, the event loops and collation carry their largest share.",
            _serve_setup,
            _serve_lap,
        ),
    )
}
