"""Run one benchmark workload (or all of them) and print every metric.

    python3 perfbench/run.py --workload ego_scale --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root: the program under test is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the same stream twice, untraced then traced, and reports
the per-layer metrics plus the tracing overhead.  Each run writes its raw
record (metrics, environment facts, problems) to ``perfbench/raw/``;
``python3 perfbench/table.py`` turns a set of raw records into a table.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is non-zero when any output check failed.  ``--workload all``
runs every workload, untraced then traced, each in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("ego_scale", "paper_live", "http_hot")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: small graphs for the self-test")
    parser.add_argument("--raw-dir", type=Path, default=HERE / "raw",
                        help="where the raw per-run JSON records go")
    return parser.parse_args(argv)


def _print_metrics(workload: str, trace: int, report: dict) -> None:
    from metrics import UNITS

    mode = "traced" if trace else "untraced"
    print(f"== {workload} ({mode}) attempted={report['attempted']} failed={report['failed']} "
          f"samples={report['samples']} writes={report['writes']} valid={report['valid']}")
    for name, value in report["metrics"].items():
        print(f"  {name:42s} {value:14.4f} {UNITS[name]}")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def run_one(args) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from measure import environment, finite
    from metrics import CONTRACT_END_TO_END, PER_LAYER, UNITS
    from workloads import WORKLOADS, Options

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    env = environment(ROOT, args.seed)
    started = time.perf_counter()
    try:
        report = WORKLOADS[args.workload](Options(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            size=args.size, work=work,
        ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
    report.update(workload=args.workload, trace=args.trace, seconds=args.seconds,
                  size=args.size, wall_s=time.perf_counter() - started, environment=env)
    args.raw_dir.mkdir(parents=True, exist_ok=True)
    raw = args.raw_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    raw.write_text(json.dumps(report, indent=1, default=float))
    _print_metrics(args.workload, args.trace, report)
    if not report["valid"]:
        print(f"  INVALID RUN: load generator lag p99 "
              f"{report['extra'].get('lag_p99_ms', 0):.2f} ms", file=sys.stderr)
    names = [name for name, _, _ in PER_LAYER] if args.trace else CONTRACT_END_TO_END
    final = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": finite(report["metrics"][name]), "unit": UNITS[name]}
            for name in names
        },
    }
    print(json.dumps(final))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    code = 0
    for workload in NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--size", args.size,
                    "--raw-dir", str(args.raw_dir)]
            code |= subprocess.run(argv, cwd=ROOT).returncode
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
