"""``python -m hostbench compare A.json B.json`` — is B worse than A?

One row per workload x end-to-end metric.  A metric whose laps spread
wider than its bound cannot resolve a change of the size of the bound:
it is reported ``unresolved`` rather than ``ok`` — unless the two runs'
laps do not even overlap, which noise does not explain.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from hostbench.metrics import END_TO_END, EXACT_COUNTS, Metric
from hostbench.stats import iqr_frac

OK, WORSE, UNRESOLVED, DIFFERS = "ok", "worse", "unresolved", "differs"


def worsening(metric: Metric, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a`` in the metric's bad direction (<= 0: not worse)."""
    delta = b - a if metric.better == "lower" else a - b
    if metric.absolute:
        return delta
    return delta / abs(a) if a else (0.0 if delta == 0 else float("inf"))


def verdict(metric: Metric, a: Dict, b: Dict) -> str:
    worse_by = worsening(metric, a["value"], b["value"])
    if max(iqr_frac(a), iqr_frac(b)) <= metric.bound:
        return WORSE if worse_by > metric.bound else OK
    # Noisy laps.  B is still worse if the inter-quartile ranges do not even
    # overlap, and still fine if every lap of B beats every lap of A.
    low, high = (a, b) if metric.better == "lower" else (b, a)
    if worse_by > metric.bound and low["q3"] < high["q1"]:
        return WORSE
    if worse_by < 0 and low["min"] > high["max"]:
        return OK
    return UNRESOLVED


def compare(a: Dict, b: Dict) -> Tuple[List[List[str]], bool]:
    """Rows of the verdict table and whether any row is ``worse``."""
    rows: List[List[str]] = []
    any_worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in END_TO_END:
            if metric.name not in wa["metrics"] or metric.name not in wb["metrics"]:
                continue
            ca, cb = wa["metrics"][metric.name], wb["metrics"][metric.name]
            outcome = verdict(metric, ca, cb)
            any_worse |= outcome == WORSE
            change = worsening(metric, ca["value"], cb["value"])
            rows.append([
                name, metric.name, _cell(ca), _cell(cb),
                f"{change:+.4g}" if metric.absolute else f"{change * 100:+.2f}%",
                outcome,
            ])
        # Exact counts of a traced run: informational, a later issue may
        # move them on purpose.
        for key in EXACT_COUNTS:
            va, vb = wa.get("per_layer", {}).get(key), wb.get("per_layer", {}).get(key)
            if va is not None and vb is not None:
                rows.append([name, key, f"{va:g}", f"{vb:g}", f"{vb - va:+g}", OK if va == vb else DIFFERS])
    return rows, any_worse


def _cell(cell: Dict) -> str:
    if "q1" in cell:
        return f"{cell['value']:.4f} [{cell['q1']:.4f}, {cell['q3']:.4f}]"
    return f"{cell['value']:.6g}"


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rows, any_worse = compare(json.load(fa), json.load(fb))
    header = ["workload", "metric", "A value [q1, q3]", "B value [q1, q3]", "B worse by", "verdict"]
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if any_worse else 0
