"""Host-time replay benchmark for the SSD simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gc_churn --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (``records_per_s``,
``setup_s``, ``peak_rss_mb``); ``--trace 1`` prints the per-layer table
and metrics of the traced reps, the tracing overhead, and writes the last
traced rep's spans as Chrome trace-event JSON under ``perfbench/out/``.
The last line of standard output of a completed run is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

The simulator is imported from ``src/`` of the checkout this file sits
in; without it the benchmark exits with status 2 and prints no result.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def _report(result, trace: bool) -> None:
    workload = result.workload
    print(f"workload {workload.name}  seed {result.seed}  "
          f"untraced reps {len(result.reps)}  why: {workload.why}")
    if trace:
        table = result.table
        print(f"{'layer':18s} {'self us/record':>15s} {'share':>7s} "
              f"{'spans/record':>13s}")
        records = workload.records
        for layer, seconds in table.self_s.items():
            calls = table.calls.get(layer, 0)
            print(f"{layer:18s} {seconds * 1e6 / records:15.3f} "
                  f"{seconds / table.root_s:7.1%} {calls / records:13.2f}")
        print(f"{'root span':18s} {table.root_s * 1e6 / records:15.3f} "
              f"{1:7.1%}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for note in result.notes:
        print(note)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.harness import timed_run, traced_run
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        result = traced_run(workload, args.seed, args.seconds, OUT_DIR)
    else:
        result = timed_run(workload, args.seed, args.seconds)
    _report(result, bool(args.trace))
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
