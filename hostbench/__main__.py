"""``python -m hostbench`` — the one command.

    python -m hostbench                       all five workloads, end to end
    python -m hostbench --workload train_pygx --seed 3 --seconds 15
    python -m hostbench --trace               per-layer metrics + Chrome traces
    python -m hostbench compare A.json B.json
    python -m hostbench record-golden

Each workload runs in a fresh interpreter (``hostbench.child``) with the
math libraries pinned to one thread.  When exactly one workload is
selected the last line of stdout is the benchmark contract's JSON object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from hostbench import compare, report
from hostbench.metrics import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"

#: Every name must be listed before repro is importable, so the parent
#: keeps its own copy; tests hold it equal to ``workloads.WORKLOADS``.
WORKLOAD_NAMES = ("train_pygx", "train_dglx", "train_fullgraph", "train_compiled", "serve_replay")

#: Set-up is measured this many times per run (fresh interpreters: these
#: probes and the measuring process itself) and the median reported.
SETUP_SAMPLES = 3
#: Measuring seconds per workload (``run_seconds`` in BENCHMARK.json).
DEFAULT_SECONDS = 16.0
GOLDEN_SEEDS = tuple(range(12))

#: The slice of the metric tables the benchmark contract takes from a
#: single-workload run: every workload must report every name and none
#: may read 0 or repeat exactly across seeds, which rules out the
#: serving-only and simulated metrics (see README).
CONTRACT_END_TO_END = ("setup_s", "host_s", "host_peak_rss_mb")


def run_child(arguments: List[str]) -> Dict:
    """Run ``hostbench.child`` in a fresh interpreter; its last stdout line as JSON."""
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        ),
    )
    done = subprocess.run(
        [sys.executable, "-m", "hostbench.child", *arguments],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"hostbench: workload process failed ({done.returncode}): {' '.join(arguments)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_golden() -> Optional[Dict]:
    if not GOLDEN.exists():
        return None
    with open(GOLDEN) as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, laps: int, trace: bool, golden) -> Dict:
    base = ["--workload", name, "--seed", str(seed)]
    setup = [run_child(base + ["--setup-only"])["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = base + ["--seconds", str(seconds), "--laps", str(laps)]
    if trace:
        run += ["--trace-to", str(RESULTS / f"trace-{name}.json")]
    raw = run_child(run)
    setup.append(raw["setup_s"])
    return report.evaluate(raw, setup, golden)


def contract_line(result: Dict, trace: bool) -> str:
    if trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        metrics = {k: {"value": result["per_layer"][k], "unit": units[k]} for k in units}
    else:
        metrics = {
            k: {"value": result["metrics"][k]["value"], "unit": result["metrics"][k]["unit"]}
            for k in CONTRACT_END_TO_END
        }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def record_golden(seeds) -> int:
    golden = {"rtol": report.GOLDEN_RTOL, "sizes": {}, "seeds": {}}
    for seed in seeds:
        golden["seeds"][str(seed)] = {}
        for name in WORKLOAD_NAMES:
            raw = run_child(["--workload", name, "--seed", str(seed), "--laps", "1"])
            record = raw["record"]
            if record["problems"] or raw["mismatched_laps"] or record["failed"]:
                raise SystemExit(f"hostbench: refusing to record a failing lap: {name} seed {seed}: {record}")
            golden["sizes"][name] = raw["sizes"]
            golden["seeds"][str(seed)][name] = {
                "losses": record["losses"],
                "accounting": record["accounting"],
            }
            print(f"recorded {name} seed {seed}")
    with open(GOLDEN, "w") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: python -m hostbench compare A.json B.json")
        return compare.main(argv[1], argv[2])
    if argv[:1] == ["record-golden"]:
        parser = argparse.ArgumentParser(prog="python -m hostbench record-golden")
        parser.add_argument("--seeds", type=int, nargs="+", default=list(GOLDEN_SEEDS))
        return record_golden(parser.parse_args(argv[1:]).seeds)

    parser = argparse.ArgumentParser(prog="python -m hostbench", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the data and trace generators")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure laps for this long (at least 3 laps)")
    parser.add_argument("--laps", type=int, default=0, help="run exactly this many timed laps instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics, Chrome traces under hostbench/results/")
    parser.add_argument("--out", type=Path, default=RESULTS / "latest.json")
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    golden = load_golden()
    names = args.workload or list(WORKLOAD_NAMES)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, args.laps, bool(args.trace), golden)
        print(report.format_result(name, results[name]), flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump({"schema": 1, "seed": args.seed, "trace": bool(args.trace), "workloads": results},
                  handle, indent=1)
        handle.write("\n")
    print(f"wrote {args.out}")
    if len(names) == 1:
        print(contract_line(results[names[0]], bool(args.trace)))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
