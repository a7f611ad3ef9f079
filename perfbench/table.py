"""Turn a set of raw run records into a per-workload table of medians.

    python3 perfbench/table.py                   # every record in perfbench/raw/
    python3 perfbench/table.py runs/*.json       # or the records named

For every (workload, traced/untraced) group and metric it prints the
median, the first and third quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median``.  Runs flagged invalid (the open-loop
generator fell behind) and runs with failed output checks are left out
and listed below the table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="*", type=Path,
                        help="raw JSON records (default: perfbench/raw/*.json)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from metrics import UNITS

    paths = args.records or sorted((HERE / "raw").glob("*.json"))
    groups = {}
    dropped = []
    for path in paths:
        record = json.loads(path.read_text())
        if not record["valid"] or not record["correct"]:
            reason = "invalid (generator lag)" if not record["valid"] else "failed checks"
            dropped.append(f"{path.name}: {reason}")
            continue
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    if not groups:
        print("no usable records", file=sys.stderr)
        return 1
    for (workload, trace), records in sorted(groups.items()):
        seeds = sorted(r["environment"]["seed"] for r in records)
        print(f"\n{workload} ({'traced' if trace else 'untraced'}), "
              f"{len(records)} runs, seeds {seeds}")
        print(f"  {'metric':42s} {'unit':>14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s}")
        for name in records[0]["metrics"]:
            values = [r["metrics"][name] for r in records]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:42s} {UNITS[name]:>14s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f}")
    for line in dropped:
        print(f"dropped {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
