"""The workload process: one fresh interpreter, one workload.

``python -m hostbench`` starts this module in a subprocess with the
thread-count and hash-seed environment pinned; it is not meant to be run
by hand.  Order of events: set-up (imports, data, whatever the laps
reuse) -> one discarded warm-up lap -> the timed laps (or, with
``--trace``, the traced laps, the profiled laps and the kernel probes).
The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

from time import perf_counter

# Read before numpy and repro are imported: set-up time starts here.
_T0 = perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Callable, Dict, List  # noqa: E402

#: A timed run never reports fewer laps than this, however short ``--seconds``.
MIN_LAPS = 3
#: Laps of each kind in a traced run (plain ones give ``trace.overhead_frac``).
TRACED_LAPS = 3


def _timed_lap(lap: Callable[[], Dict]):
    gc.collect()  # every lap starts from the same heap, outside the timed region
    start = perf_counter()
    record = lap()
    return perf_counter() - start, record


def run_timed(lap: Callable[[], Dict], reference: Dict, seconds: float, laps: int) -> Dict:
    """``laps`` timed laps if given, else as many as fit in ``seconds``."""
    times: List[float] = []
    mismatched = 0
    deadline = perf_counter() + seconds

    def more() -> bool:
        if laps:
            return len(times) < laps
        return len(times) < MIN_LAPS or perf_counter() < deadline

    while more():
        elapsed, record = _timed_lap(lap)
        times.append(elapsed)
        mismatched += record != reference
    return {"lap_s": times, "mismatched_laps": mismatched}


def run_traced(lap: Callable[[], Dict], reference: Dict, state, trace_path: str) -> Dict:
    from hostbench import layers, probes
    from hostbench.trace import Tracer, install, write_chrome_trace

    plain = [_timed_lap(lap)[0] for _ in range(TRACED_LAPS)]
    tracer = Tracer()
    install(tracer)
    counters = []
    mismatched = 0
    try:
        for _ in range(TRACED_LAPS):
            gc.collect()
            index = tracer.begin("lap")
            record = lap()
            tracer.end(index)
            counters.append(tracer.take_counters())
            mismatched += record != reference
    finally:
        tracer.uninstall()
    write_chrome_trace(tracer.spans, trace_path)

    per_layer = layers.from_trace(tracer.spans, counters, plain)
    per_layer.update(layers.from_record(reference, per_layer, state.build_s))
    per_layer.update(probes.profiled_lap(lap))
    per_layer["host.tracemalloc_peak_mb"] = probes.tracemalloc_peak_mb(lap)
    per_layer.update(probes.tensor_probes(state.probe_graphs))
    return {"per_layer": per_layer, "lap_s": plain, "mismatched_laps": mismatched}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m hostbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--laps", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-to", default="", help="traced run; Chrome trace written here")
    args = parser.parse_args(argv)

    from hostbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    out = {
        "workload": workload.name,
        "item": workload.item,
        "seed": args.seed,
        "sizes": state.sizes,
        "setup_s": perf_counter() - _T0,
    }
    if not args.setup_only:
        lap = functools.partial(workload.lap, state)
        reference = lap()  # warm-up: lazy imports, first-touch caches
        out["record"] = reference
        if args.trace_to:
            out.update(run_traced(lap, reference, state, args.trace_to))
        else:
            out.update(run_timed(lap, reference, args.seconds, args.laps))
        out["host_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
