"""Start ``stgq`` (``repro.cli.main``) with the benchmark's spans installed.

The ``http_hot`` workload launches its gateway and workers through this
module instead of ``python -m repro``.  With ``PERFBENCH_SPANS`` unset it
is exactly ``repro.cli.main(argv)``; with it set to a file path, the
layer wrappers of :mod:`tracing` are installed first and every span is
written to that file once the command returns (SIGTERM drains and returns).

    python3 perfbench/serve.py worker --graph G.stgq --listen 127.0.0.1:0
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    from repro.cli import main as stgq_main

    out = os.environ.get("PERFBENCH_SPANS")
    if not out:
        return stgq_main(sys.argv[1:])
    from tracing import Instrumentation, Tracer

    tracer = Tracer()
    instrumentation = Instrumentation(tracer).install()
    try:
        return stgq_main(sys.argv[1:])
    finally:
        instrumentation.uninstall()
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
