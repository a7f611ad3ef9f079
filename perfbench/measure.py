"""Small measurement helpers: percentiles, /proc readers, environment facts."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); +inf samples sort last."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name may contain spaces; fields resume after its ')'.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of a live process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM at its current RSS (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def environment(root: Path, seed: int) -> Dict[str, object]:
    """Facts about the machine and checkout recorded with every raw run."""
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass  # an exported checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
        "loadavg_at_start": list(os.getloadavg()),
        "argv": sys.argv,
    }


def finite(value: float) -> float:
    """JSON-safe number: an infinite latency (a failed request) reads 1e12."""
    return value if math.isfinite(value) else 1e12
