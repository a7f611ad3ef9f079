"""Quick self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and asserts that:

* each run passes its output checks and exits 0;
* the final JSON line names every metric of ``BENCHMARK.json`` with its
  unit, and the raw record holds all eight end-to-end metrics plus the
  unscaled values of the host-speed-rescaled ones;
* the traced runs together emit a span for every layer in
  :data:`tracing.LAYERS`;
* ``BENCHMARK.json`` and :mod:`metrics` agree on names, units and
  directions.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import CONTRACT_END_TO_END, END_TO_END, PER_LAYER, UNITS  # noqa: E402
from run import NAMES  # noqa: E402
from tracing import LAYERS  # noqa: E402


def check_contract_file() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    directions = {name: better for name, _, better in END_TO_END + PER_LAYER}
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert [name for name, _, _ in e2e] == list(CONTRACT_END_TO_END), e2e
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert [name for name, _, _ in per_layer] == [name for name, _, _ in PER_LAYER]
    for name, unit, better in e2e + per_layer:
        assert (UNITS[name], directions[name]) == (unit, better), name
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)


def run(workload: str, trace: int, raw_dir: Path) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
            "--seconds", "3", "--trace", str(trace), "--size", "toy",
            "--raw-dir", str(raw_dir)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stdout}\n{proc.stderr}"
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}, final
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, final
    expected = [name for name, _, _ in PER_LAYER] if trace else list(CONTRACT_END_TO_END)
    assert list(final["metrics"]) == expected, final["metrics"].keys()
    for name, entry in final["metrics"].items():
        assert entry["unit"] == UNITS[name], (name, entry)
        assert isinstance(entry["value"], (int, float)), (name, entry)
    (record_path,) = raw_dir.glob(f"{workload}-seed3-trace{trace}-*.json")
    return json.loads(record_path.read_text())


def main() -> int:
    check_contract_file()
    raw_dir = ROOT / ".perfbench-work" / "selftest"
    shutil.rmtree(raw_dir, ignore_errors=True)
    layers = set()
    try:
        for workload in NAMES:
            untraced = run(workload, 0, raw_dir)
            missing = [name for name, _, _ in END_TO_END if name not in untraced["metrics"]]
            assert not missing, f"{workload}: raw record lacks {missing}"
            assert untraced["metrics"]["throughput_qps"] > 0, workload
            raw = untraced["extra"]["raw_metrics"]
            assert raw["cpu_ms_per_query"] > 0 and raw["setup_s"] > 0, (workload, raw)
            traced = run(workload, 1, raw_dir)
            layers.update(traced["layers"])
            print(f"ok  {workload}: {untraced['attempted']} ops untraced, "
                  f"layers {traced['layers']}")
    finally:
        shutil.rmtree(raw_dir, ignore_errors=True)
        try:
            raw_dir.parent.rmdir()
        except OSError:
            pass  # a run's work directory is still there
    missing = sorted(set(LAYERS) - layers)
    assert not missing, f"no spans for layers {missing}"
    print(f"ok  spans for all {len(LAYERS)} layers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
