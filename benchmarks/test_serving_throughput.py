"""Serving extension — dynamic batching under open-loop inference traffic.

The paper's training-side result (small-graph workloads are launch-bound,
so batching nearly halves compute time per doubling of batch size) applied
to the inference path: a 1000-request Poisson trace against briefly-trained
GCN/ENZYMES models in both frameworks, served request-at-a-time
(``b1``) versus dynamically batched (``b32``).  A second, over-capacity
bursty trace shows admission control shedding load instead of letting the
queue grow without bound.

Writes ``benchmarks/results/serving_throughput.txt`` and the machine-
readable trajectory file ``BENCH_serving.json`` at the repo root.
"""

from itertools import cycle

from repro.bench.experiments import EXPERIMENTS

PROTOCOL = EXPERIMENTS["serving"].protocol
N_REQUESTS = PROTOCOL["requests"]


def test_serving_throughput(run_document):
    *served, overload = run_document("serving", "serving_throughput")
    # Entries go by framework name, unbatched (b1) then batched (b32).
    results = {(r.framework, b): r for r, b in zip(served, cycle((1, 32)))}

    for framework in PROTOCOL["frameworks"]:
        unbatched = results[(framework, 1)]
        batched = results[(framework, 32)]
        # Dynamic batching amortises launch overhead: measurably higher
        # throughput and lower tail latency than request-at-a-time serving.
        assert batched.throughput > 1.5 * unbatched.throughput, framework
        assert batched.mean_batch_size > 1.5, framework
        assert batched.p99 < unbatched.p99, framework
        # The saturated unbatched server sheds; the batched one keeps up.
        assert unbatched.shed > 0, framework
        assert batched.completed == N_REQUESTS, framework
        # Collation cost is visible in the same phase the training figures
        # use, and idle/forward account for the rest.
        assert batched.phase_times["data_loading"] > 0.0
        assert batched.phase_times["forward"] > 0.0

    # Over-capacity bursts: bounded queue + typed shedding, no silent growth.
    assert overload.shed_by_reason.get("queue_full", 0) > 0
    assert overload.max_queue_depth <= 32
    assert overload.completed + overload.shed == 300

    # The same trace and checkpoints: PyG-style serving sustains higher
    # batched throughput than DGL-style (its batching path is cheaper).
    assert results[("pygx", 32)].throughput > results[("dglx", 32)].throughput
