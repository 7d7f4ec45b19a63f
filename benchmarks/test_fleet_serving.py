"""repro.fleet — multi-replica serving fleet benchmark.

Replays the bursty three-tenant trace against the DD/GCN fleet across the
four ``repro.bench.fleet`` sections and asserts the headline claims:

* **Replica scaling**: goodput grows monotonically 1 -> 2 -> 4 -> 8 (each
  replica runs its own host + compute timelines, so the fleet genuinely
  parallelises) and the 8-replica p99 undercuts the 1-replica p99.
* **Routing**: power-of-two-choices beats round-robin's load-blind
  rotation on p99 at the largest fleet, where DD's service-time variance
  builds queue imbalance behind slow batches.
* **Chaos**: two replica losses plus injected device faults mid-trace
  still resolve every request explicitly, per tenant (no silent loss).
* **Autoscaling**: a one-replica fleet warm-starts capacity into the
  burst and lands above the static single replica's goodput.
* **Caching**: the Zipf-skewed trace earns a nonzero LRU hit-rate.

Writes ``benchmarks/results/fleet_serving.txt`` and the schema-validated
``BENCH_fleet.json`` at the repo root (gated by
``tools/check_bench_regression.py``).
"""

from repro.bench.experiments import EXPERIMENTS
from repro.bench.fleet import FLEET_TABLE, fleet_document, fleet_grid
from repro.bench.serialize import validate_document
from repro.bench.tables import render_table

PROTOCOL = EXPERIMENTS["fleet"].protocol
REPLICA_SWEEP = PROTOCOL["replicas"]
TRACE_REQUESTS = PROTOCOL["requests"]

SMOKE_REQUESTS = 150


def _by_key(cells):
    return {(c["kind"], c["policy"], c["replicas"]): c for c in cells}


def test_fleet_smoke(benchmark):
    """Fast 1-vs-2-replica run on a reduced trace (CI: ``-k smoke``)."""

    def run():
        return fleet_grid(
            kinds=("replicas",), replicas=(1, 2), n_requests=SMOKE_REQUESTS
        )

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    validate_document("fleet", fleet_document(cells))
    one, two = _by_key(cells)[("replicas", "p2c", 1)], _by_key(cells)[("replicas", "p2c", 2)]
    assert one["no_silent_loss"] and two["no_silent_loss"]
    assert two["completed"] > one["completed"]
    assert two["goodput"] > one["goodput"]


def test_fleet_serving(run_document):
    cells = run_document("fleet", "fleet_serving")["cells"]
    by_key = _by_key(cells)

    # Every cell resolves every request, fleet-wide and per tenant.
    for cell in cells:
        key = (cell["kind"], cell["policy"], cell["replicas"])
        assert cell["no_silent_loss"], key
        assert cell["resolved"] == cell["n_requests"] == TRACE_REQUESTS, key
        for name, tenant in cell["tenants"].items():
            assert tenant["resolved"] == tenant["n_requests"], (key, name)

    # Replica scaling: goodput monotone in fleet size; the full fleet
    # also collapses the tail the single replica builds up.
    sweep = [by_key[("replicas", "p2c", n)] for n in REPLICA_SWEEP]
    for thinner, wider in zip(sweep, sweep[1:]):
        assert wider["goodput"] > thinner["goodput"], (
            thinner["replicas"], wider["replicas"],
        )
    assert sweep[-1]["p99"] < sweep[0]["p99"]
    assert sweep[-1]["completed"] == TRACE_REQUESTS

    # Routing: sampling two queues beats load-blind rotation on tail
    # latency at high load (the power-of-two-choices claim).
    largest = max(REPLICA_SWEEP)
    p2c = by_key[("policy", "p2c", largest)]
    rr = by_key[("policy", "round_robin", largest)]
    assert p2c["p99"] < rr["p99"], (p2c["p99"], rr["p99"])

    # Chaos: losses and faults happened and were handled explicitly.
    chaos = by_key[("chaos", "p2c", 4)]
    assert chaos["replica_losses"] == 2
    assert chaos["reroutes"] > 0
    assert chaos["retries"] > 0
    assert chaos["failed"] > 0 and "replica_lost" in chaos["failed_by_reason"]

    # Autoscaling: warm starts grow the fleet into the burst and beat
    # the static single replica.
    auto = by_key[("autoscale", "p2c", 1)]
    assert auto["scale_ups"] > 0
    assert auto["peak_replicas"] > 1
    assert auto["goodput"] > by_key[("replicas", "p2c", 1)]["goodput"]

    # Caching: the Zipf head hits; the report carries the rate.
    for cell in cells:
        assert cell["cache_hit_rate"] > 0.0, cell["kind"]

    # Determinism: replaying the policy section reproduces its cells
    # bit-for-bit (seeded routing, seeded trace, simulated clock).
    again = fleet_grid(kinds=("policy",))
    assert again == [c for c in cells if c["kind"] == "policy"]


def test_fleet_policy_table(publish):
    """Companion table: the policy section rendered on its own."""
    cells = fleet_grid(kinds=("policy",))
    publish(
        "fleet_policies",
        render_table(
            FLEET_TABLE,
            cells,
            title=(
                f"Routing policies at {max(REPLICA_SWEEP)} replicas "
                f"(trace scale {PROTOCOL['scale']:g}, {TRACE_REQUESTS} requests)"
            ),
        ),
    )
    by_policy = {c["policy"]: c for c in cells}
    assert by_policy["p2c"]["p99"] < by_policy["round_robin"]["p99"]
    assert by_policy["least_loaded"]["p99"] < by_policy["round_robin"]["p99"]
