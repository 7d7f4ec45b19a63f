"""Command-line experiment runner: one CLI over :mod:`repro.bench.experiments`.

Runs any record of the ``EXPERIMENTS`` table from a shell, without pytest::

    python -m repro.bench.report table1
    python -m repro.bench.report table4 --models gcn gat --datasets cora --epochs 30
    python -m repro.bench.report table5 --json results.json --csv results.csv
    python -m repro.bench.report fig1 --batch-sizes 64 128 --models gcn
    python -m repro.bench.report kernels --models gcn --compiled --top 12
    python -m repro.bench.report serving --requests 500 --rate 1500 --json serving.json
    python -m repro.bench.report ops --shapes cora pubmed --json ops_subset.json
    python -m repro.bench.report faults          # regenerates BENCH_faults.json
    python -m repro.bench.report paper           # regenerates BENCH_paper.json (~14 min)

Every experiment prints its paper-style table, then checks the record's
claims against what it measured: each claim the run contradicts is printed
as ``ERROR: <sentence> -- fails for <cells>`` and makes the exit status 1.
A claim only speaks about cells whose counterpart is in the run, so a run
reduced to one framework or one batch size has nothing to compare and
exits 0.  A flag overrides one key of the record's ``protocol``; a flag
the record has no key for is a usage error.  With no override, a record
that backs a committed ``BENCH_<name>.json`` rewrites that file in the
working directory; with any override, output goes only where
``--json``/``--csv`` say, so a quick reduced run cannot clobber a baseline.

Run as ``python -m``, the CLI first re-executes itself under
:data:`repro.bench.spec.NUMERIC_ENV` when the environment lacks it: BLAS
and numpy read those variables when they load, and every committed
document is written under them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.bench import fleet, ops
from repro.bench.experiments import EXPERIMENTS, write_document
from repro.bench.spec import NUMERIC_ENV, SPECS, unpinned_settings
from repro.fleet import POLICY_NAMES


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.report",
        description="Run one experiment of repro.bench.experiments.EXPERIMENTS.",
        argument_default=argparse.SUPPRESS,  # only flags the user passed are overrides
    )
    parser.add_argument("experiment", choices=list(EXPERIMENTS))
    parser.add_argument("--json", help="write the result JSON here")
    parser.add_argument("--csv", help="write the summary CSV here")
    parser.add_argument("--models", nargs="+")
    parser.add_argument("--frameworks", nargs="+")
    parser.add_argument("--datasets", nargs="+")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-sizes", nargs="+", type=int)
    parser.add_argument("--batch-size", type=int, help="one-batch / loader batch size")
    parser.add_argument("--num-graphs", type=int, help="dataset subset (0 = all)")
    parser.add_argument("--folds", type=int)
    parser.add_argument("--requests", type=int, help="arrival-trace length")
    parser.add_argument("--rate", type=float, help="arrivals/s")
    parser.add_argument("--queue-capacity", type=int)
    parser.add_argument("--max-batch-size", type=int)
    parser.add_argument("--compiled", action="store_true",
                        help="kernels: profile the compiled step")
    parser.add_argument("--top", type=int, help="kernels: rows to show")
    parser.add_argument("--fault-rates", nargs="+", type=float,
                        help="per-event OOM/kernel-fault probabilities to sweep")
    parser.add_argument("--fault-seed", type=int, help="FaultPlan seed")
    parser.add_argument("--shapes", nargs="+", choices=sorted(ops.SHAPES))
    parser.add_argument("--ops", nargs="+", choices=ops.OPS)
    parser.add_argument("--modes", nargs="+", choices=ops.MODES)
    parser.add_argument("--precisions", nargs="+", choices=ops.PRECISIONS,
                        help="default: fp32 everywhere plus fp16 on the eager cells")
    parser.add_argument("--kinds", nargs="+", choices=fleet.FLEET_KINDS)
    parser.add_argument("--replicas", nargs="+", type=int)
    parser.add_argument("--policies", nargs="+", choices=POLICY_NAMES)
    parser.add_argument("--scale", type=float, help="fleet: trace rate multiplier")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--chrome-trace",
                        help="fleet: write a Chrome trace of the largest fleet here")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _parser()
    overrides = vars(parser.parse_args(argv))
    record = EXPERIMENTS[overrides.pop("experiment")]
    outputs = {kind: overrides.pop(kind, None) for kind in ("json", "csv")}
    for kind, path in outputs.items():
        if path and getattr(record, f"to_{kind}") is None:
            parser.error(f"--{kind}: experiment {record.name!r} has no {kind} serialiser")
    for key in overrides:
        if key not in record.protocol:
            flag = "--" + key.replace("_", "-")
            parser.error(f"{flag} does not apply to experiment {record.name!r}")

    protocol = {**record.protocol, **overrides}
    body = record.run(protocol)
    print(record.render(body, protocol))

    if not outputs["json"] and not overrides and record.name in SPECS:
        outputs["json"] = f"BENCH_{record.name}.json"
    if outputs["json"]:
        write_document(record.name, body, outputs["json"])
        print(f"wrote {outputs['json']}")
    if outputs["csv"]:
        with open(outputs["csv"], "w") as fh:
            fh.write(record.to_csv(body))
    failures = record.failures(body)
    for failure in failures:
        print(f"ERROR: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if unpinned_settings():
        os.execve(sys.executable, sys.orig_argv, {**os.environ, **NUMERIC_ENV})
    sys.exit(main())
