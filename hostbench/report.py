"""From a workload process's raw output to a judged, printable result."""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from hostbench.metrics import END_TO_END
from hostbench.stats import summarize

#: Relative tolerance on golden losses: kernel rewrites are expected to
#: drift bitwise (ROADMAP), not numerically.
GOLDEN_RTOL = 1e-3


def golden_problems(raw: Dict, golden: Optional[Dict]) -> List[str]:
    """Compare a lap record with ``golden.json`` (``[]`` if the seed is unrecorded)."""
    if golden is None:
        return ["golden.json is missing; run `python -m hostbench record-golden`"]
    expected = golden["seeds"].get(str(raw["seed"]), {}).get(raw["workload"])
    if expected is None:
        return []
    if golden["sizes"][raw["workload"]] != raw["sizes"]:
        return ["golden.json was recorded under other lap sizes; re-record it"]
    problems = []
    record = raw["record"]
    for cell, want in expected["losses"].items():
        got = record["losses"].get(cell)
        if got is None or not math.isclose(got, want, rel_tol=GOLDEN_RTOL):
            problems.append(f"loss of {cell} is {got!r}, golden {want!r}")
    if record["accounting"] != expected["accounting"]:
        problems.append(f"request accounting {record['accounting']} != golden {expected['accounting']}")
    return problems


def evaluate(raw: Dict, setup_samples: Sequence[float], golden: Optional[Dict]) -> Dict:
    """Judge one workload run: metrics by name, operations failed, checks."""
    record = raw["record"]
    laps = raw["lap_s"]
    problems = list(record["problems"]) + golden_problems(raw, golden)
    if any(not math.isfinite(loss) for loss in record["losses"].values()):
        problems.append(f"non-finite final loss: {record['losses']}")
    if raw["mismatched_laps"]:
        problems.append(
            f"{raw['mismatched_laps']} lap(s) differ from the warm-up lap in simulated statistics or losses"
        )
    # One lap = its operations plus one correctness check of the lap itself.
    attempted = len(laps) * (record["attempted"] + 1)
    failed = len(laps) * record["failed"] + (len(laps) if problems else 0)

    host = summarize(laps)
    setup = summarize(list(setup_samples))
    values = {
        "setup_s": {"value": setup["median"], **setup},
        # The fastest lap, not the median one: see README, "Noise notes".
        "host_s": {"value": host["min"], **host},
        "host_peak_rss_mb": {"value": raw["host_peak_rss_mb"]},
        "failed_frac": {"value": failed / attempted},
        **{k: {"value": record[k]} for k in ("sim_s", "sim_peak_mem_mb", "sim_p99_ms", "sim_goodput_rps") if k in record},
    }
    metrics = {
        m.name: {**values[m.name], "unit": m.unit}
        for m in END_TO_END
        if m.applies(raw["workload"])
    }
    result = {
        "seed": raw["seed"],
        "sizes": raw["sizes"],
        "laps": len(laps),
        "lap_s": laps,
        "metrics": metrics,
        # Printed, never gated: a change that only lowers sim_s must not
        # read as a regression of the ratio.
        "derived": {
            "host_per_sim": host["min"] / record["sim_s"],
            "items_per_host_s": record["items"] / host["min"],
            "item": raw["item"],
        },
        "attempted": attempted,
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "record": record,
    }
    if "per_layer" in raw:
        result["per_layer"] = raw["per_layer"]
    return result


def format_result(name: str, result: Dict) -> str:
    """The table one workload prints: every end-to-end metric by name."""
    by_name = {m.name: m for m in END_TO_END}
    verdict = "correct" if result["correct"] else "INCORRECT"
    lines = [
        f"{name}  seed={result['seed']}  laps={result['laps']}  {verdict}  "
        f"failed {result['failed']}/{result['attempted']} operations",
        f"  {'metric':<18}{'value':>12} {'unit':<5}{'clock':<6}{'better':<8}{'bound':<8}median [q1 .. q3] (n)",
    ]
    for metric_name, cell in result["metrics"].items():
        m = by_name[metric_name]
        bound = f"{m.bound:g} abs" if m.absolute else f"{m.bound * 100:g}%"
        spread = ""
        if "q1" in cell:
            spread = f"{cell['median']:.4f} [{cell['q1']:.4f} .. {cell['q3']:.4f}] ({cell['n']})"
        lines.append(
            f"  {metric_name:<18}{cell['value']:>12.4f} {m.unit:<5}{m.clock:<6}{m.better:<8}{bound:<8}{spread}"
        )
    derived = result["derived"]
    lines.append(
        f"  (not gated) host_per_sim {derived['host_per_sim']:.1f} host-s per sim-s, "
        f"items_per_host_s {derived['items_per_host_s']:.1f} {derived['item']}/s"
    )
    lines.extend(f"  PROBLEM: {problem}" for problem in result["problems"])
    if "per_layer" in result:
        lines.append("  per layer (traced run):")
        lines.extend(f"    {key:<30}{value:>14.6g}" for key, value in result["per_layer"].items())
    return "\n".join(lines)
