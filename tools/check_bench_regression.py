#!/usr/bin/env python
"""Gate bench regressions against committed BENCH_*.json baselines.

CI regenerates all nine bench documents (serving, compile, faults,
overlap, scale, scaling, ops, fleet, paper) and then runs this script to
diff the fresh metrics against the baselines committed at the repo root.  What is gated -- per document: the cell lists, their key
fields, the metrics with direction and absolute floor, the conservation
invariants -- is declared once in ``repro.bench.spec``; this script only
walks that table.

A metric regresses when it moves in the "worse" direction by more than
``--tolerance`` (relative, default 10%) past a small absolute floor that
keeps zero-valued baselines from tripping on noise, or when its current
value is not a finite number at all.

Exit status: 0 when every gated metric holds, 1 when anything regressed,
2 on usage errors (missing files, malformed JSON, a baseline that is not a
valid document of its kind).

Usage::

    python tools/check_bench_regression.py --baseline-dir . --current-dir out/
    python tools/check_bench_regression.py \
        --baseline BENCH_compile.json --current out/BENCH_compile.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

# Runs as a plain script (no PYTHONPATH): the gate table lives in the library.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.bench.serialize import validate_document  # noqa: E402
from repro.bench.spec import (  # noqa: E402
    SPECS, Section, is_finite, spec_for, tag_of)


@dataclass
class Regression:
    """One gated metric that moved the wrong way."""

    label: str
    metric: str
    baseline: object
    current: object
    note: str = ""

    def render(self) -> str:
        detail = f"baseline={_fmt(self.baseline)} -> current={_fmt(self.current)}"
        delta = self._relative_delta()
        if delta is not None:
            detail += f"  ({delta:+.1%})"
        if self.note:
            detail += f"  [{self.note}]"
        return f"  {self.label}  {self.metric}: {detail}"

    def _relative_delta(self) -> Optional[float]:
        """Relative move of current vs baseline, when both are numeric."""
        if isinstance(self.baseline, bool) or isinstance(self.current, bool):
            return None
        if not isinstance(self.baseline, (int, float)) or not isinstance(
                self.current, (int, float)):
            return None
        if self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return repr(value) if isinstance(value, str) else str(value)


def _is_worse(direction: str, baseline: float, current: float,
              tolerance: float, floor: float) -> bool:
    if direction == "exact":
        return current != baseline
    delta = current - baseline if direction == "lower" else baseline - current
    return delta > max(tolerance * abs(baseline), floor)


def _check_metrics(label: str, section: Section, baseline: Dict,
                   current: Dict, tolerance: float) -> List[Regression]:
    out: List[Regression] = []
    for metric, direction, floor in section.metrics:
        base = section.value(metric, baseline)
        sources = section.sources(metric)
        if any(name not in current for name in sources):
            out.append(Regression(label, metric, base, None,
                                  "metric missing from current run"))
            continue
        # ``exact`` compares any value; the ordered directions need numbers
        # (NaN compares false both ways and would otherwise pass).
        bad = [current[name] for name in sources
               if direction != "exact" and not is_finite(current[name])]
        if bad:
            out.append(Regression(label, metric, base, bad[0],
                                  "not a finite number"))
            continue
        cur = section.value(metric, current)
        if _is_worse(direction, base, cur, tolerance, floor):
            out.append(Regression(label, metric, base, cur))
    return out


def _check_conserved(label: str, prefix: str, note: str,
                     fields: Tuple[str, str], entry: Dict) -> List[Regression]:
    held, expected = fields
    if entry.get(held) == entry.get(expected):
        return []
    return [Regression(label, prefix + held, entry.get(expected),
                       entry.get(held), note)]


def check_section(section: Section, baseline: object, current: object,
                  tolerance: float, subset: bool) -> List[Regression]:
    """Diff one cell list of a (validated) baseline against the current run."""
    base_cells, cur_cells = section.cells(baseline), section.cells(current)
    if section.positional:
        noun, missing = "entry", "entry missing from current run"
        pairs = [(cell, cur_cells[i] if i < len(cur_cells) else None)
                 for i, cell in enumerate(base_cells)]
    else:
        noun, missing = "cell", "cell missing from current run"
        by_key = {section.key(cell): cell for cell in cur_cells}
        keyed = {section.key(cell): cell for cell in base_cells}
        pairs = [(cell, by_key.get(key)) for key, cell in sorted(keyed.items())]
    out: List[Regression] = []
    for index, (cell, cur) in enumerate(pairs):
        label = section.label_of(cell, index)
        if cur is None:
            if not subset:  # reduced CI grid: ungenerated cells are not gated
                out.append(Regression(label, noun, "present", None, missing))
            continue
        out.extend(_check_metrics(label, section, cell, cur, tolerance))
        if section.conserved is None:
            continue
        out.extend(_check_conserved(label, "", "requests lost without resolution",
                                    section.conserved, cur))
        if section.tenants is not None:
            for name, tenant in sorted(cur.get(section.tenants, {}).items()):
                out.extend(_check_conserved(
                    label, f"tenants[{name}].",
                    "tenant requests lost without resolution",
                    section.conserved, tenant))
    return out


def check_file(baseline: object, current: object, tolerance: float,
               subset: bool) -> List[Regression]:
    """Gate one document pair; ``ValueError`` when the baseline is not a
    valid document of its kind or the current run is a different kind."""
    spec = spec_for(baseline)
    validate_document(spec.experiment, baseline)
    if tag_of(current) != spec.experiment:
        raise ValueError(f"current run is not a {spec.experiment} document")
    out: List[Regression] = []
    for section in spec.sections:
        out.extend(check_section(section, baseline, current, tolerance,
                                 subset and spec.subset))
    return out


def _load(path: str) -> object:
    with open(path) as handle:
        return json.load(handle)


def _pairs(args: argparse.Namespace) -> List[Tuple[str, str, str]]:
    if args.baseline:
        return [(os.path.basename(args.baseline), args.baseline, args.current)]
    pairs = []
    for spec in SPECS.values():
        base = os.path.join(args.baseline_dir, spec.filename)
        cur = os.path.join(args.current_dir, spec.filename)
        if os.path.exists(base):
            pairs.append((spec.filename, base, cur))
    if not pairs:
        raise FileNotFoundError(
            f"no BENCH_*.json baselines found in {args.baseline_dir}")
    return pairs


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="single baseline JSON file")
    parser.add_argument("--current", help="current JSON file (with --baseline)")
    parser.add_argument("--baseline-dir", default=".",
                        help="directory holding committed BENCH_*.json")
    parser.add_argument("--current-dir", default=".",
                        help="directory holding freshly generated BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="relative regression tolerance (default 0.10)")
    parser.add_argument("--subset", action="store_true",
                        help="gate only the cells present in the current run "
                             "(for reduced CI grids of ops documents); cells "
                             "missing from the current run stop being "
                             "regressions")
    args = parser.parse_args(argv)
    if bool(args.baseline) != bool(args.current):
        parser.error("--baseline and --current must be given together")

    try:
        pairs = _pairs(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    regressions: List[Regression] = []
    checked = 0
    for name, base_path, cur_path in pairs:
        try:
            baseline, current = _load(base_path), _load(cur_path)
            found = check_file(baseline, current, args.tolerance, args.subset)
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        checked += 1
        status = "FAIL" if found else "ok"
        print(f"{name}: {status} ({len(found)} regression(s), "
              f"tolerance {args.tolerance:.0%})")
        # The per-metric diff, grouped under its file: every failing key
        # with baseline vs current values (and the relative move where
        # the metric is numeric), not just the file name.
        for reg in found:
            print(reg.render())
        regressions.extend(found)

    if regressions:
        print(f"{len(regressions)} regression(s) across {checked} bench file(s)")
        return 1
    print(f"all {checked} bench file(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
