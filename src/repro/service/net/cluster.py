"""Local cluster launcher: worker subprocesses for one-command clusters.

``stgq cluster --workers N`` (and the remote leg of
``benchmarks/bench_service.py``) needs N worker processes serving the same
seeded dataset before a gateway can connect.  :func:`start_local_workers`
spawns them with ``python -m repro worker --listen 127.0.0.1:0 ...``, reads
each worker's ``STGQ-WORKER-READY host port`` announcement off its stdout
to learn the ephemeral ports, and confirms liveness with a ``ping`` control
frame.  The returned :class:`LocalWorkerCluster` terminates the
subprocesses on ``close()`` (SIGTERM first — the workers' signal handlers
drain their services — then SIGKILL for stragglers).

This is the local, laptop-scale deployment; the same worker command behind
a k8s Service is the multi-node shape the ROADMAP points at.
"""

from __future__ import annotations

import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ...exceptions import ProtocolError, WorkerUnavailableError
from .protocol import client_handshake, recv_frame, send_frame
from .remote import parse_addresses
from .worker import READY_MARKER

__all__ = ["LocalWorkerCluster", "start_local_workers"]


@dataclass
class LocalWorkerCluster:
    """Handle on a set of locally spawned worker subprocesses."""

    processes: List[subprocess.Popen] = field(default_factory=list)
    addresses: List[str] = field(default_factory=list)

    def connect_spec(self) -> str:
        """The ``--connect`` string a gateway needs (``host:p1,host:p2``)."""
        return ",".join(self.addresses)

    def close(self, timeout: float = 10.0) -> None:
        """Terminate every worker (graceful SIGTERM, then SIGKILL)."""
        stop_processes(self.processes, timeout)
        self.processes = []
        self.addresses = []

    def __enter__(self) -> "LocalWorkerCluster":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _repro_env() -> dict:
    """Subprocess environment with the live ``repro`` package importable."""
    import repro

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = package_root if not existing else package_root + os.pathsep + existing
    return env


def stop_processes(processes: Sequence[subprocess.Popen], timeout: float) -> None:
    """SIGTERM every process, then SIGKILL whatever outlives ``timeout``.

    SIGTERM goes to all of them first, so their drains (workers and
    gateways both finish in-flight work on SIGTERM) overlap and share one
    deadline.  Each process's stdout pipe is closed once it has exited.
    """
    for process in processes:
        if process.poll() is None:
            process.terminate()
    deadline = time.monotonic() + timeout
    for process in processes:
        remaining = max(0.1, deadline - time.monotonic())
        try:
            process.wait(timeout=remaining)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout is not None:
            process.stdout.close()


def await_ready(
    process: subprocess.Popen, marker: str, address_format: str, role: str, startup_timeout: float
) -> str:
    """Read ``process``'s stdout until its ``marker host port`` line.

    Returns ``address_format.format(host, port)``; raises
    :class:`WorkerUnavailableError` naming ``role`` when the process exits
    first or stays silent past ``startup_timeout``.

    A daemon reader thread performs the blocking ``readline`` calls and the
    launcher waits on a queue with the deadline — the same trick as
    jsonl's ``_RequestReader``, and for the same reasons: ``select`` on the
    text wrapper misses lines already pulled into its buffer and cannot
    poll pipes at all on some platforms, while a bare ``readline`` would
    ignore ``startup_timeout`` entirely for a process that hangs silently.
    A timed-out reader thread stays parked on ``readline`` until the
    caller's cleanup terminates the process (EOF releases it).
    """
    outcome: "queue.Queue[Optional[str]]" = queue.Queue()

    def _pump() -> None:
        assert process.stdout is not None
        try:
            for line in iter(process.stdout.readline, ""):
                parts = line.split()
                if len(parts) == 3 and parts[0] == marker:
                    outcome.put(address_format.format(parts[1], parts[2]))
                    return
        except (OSError, ValueError):  # pipe closed under us during cleanup
            pass
        outcome.put(None)  # EOF without a READY line

    threading.Thread(target=_pump, name=f"stgq-{role}-ready", daemon=True).start()
    try:
        address = outcome.get(timeout=startup_timeout)
    except queue.Empty:
        raise WorkerUnavailableError(
            f"{role} did not announce readiness within {startup_timeout}s"
        ) from None
    if address is None:
        raise WorkerUnavailableError(
            f"{role} process exited (code {process.poll()}) before announcing readiness"
        )
    return address


def _ping(address: str, timeout: float = 5.0) -> None:
    """Handshake + ping one worker; raises ``WorkerUnavailableError``."""
    try:
        with socket.create_connection(parse_addresses(address)[0], timeout=timeout) as sock:
            sock.settimeout(timeout)
            client_handshake(sock)
            send_frame(sock, {"type": "ping", "id": 0})
            pong = recv_frame(sock)
            if pong.get("type") != "pong":
                raise WorkerUnavailableError(f"worker {address} did not answer a ping: {pong}")
    except ProtocolError as exc:
        raise WorkerUnavailableError(f"worker {address} failed the handshake: {exc}") from exc
    except OSError as exc:
        raise WorkerUnavailableError(f"cannot reach spawned worker {address}: {exc}") from exc


def start_local_workers(
    count: int,
    people: int = 194,
    days: int = 1,
    seed: int = 42,
    backend: str = "serial",
    workers: Optional[int] = None,
    cache_size: int = 128,
    kernel: str = "compiled",
    startup_timeout: float = 120.0,
    placement: Optional[str] = None,
) -> LocalWorkerCluster:
    """Spawn ``count`` worker subprocesses serving the same seeded dataset.

    Each worker binds an ephemeral 127.0.0.1 port (``--listen 127.0.0.1:0``)
    and is pinged before this returns, so the cluster is ready for a
    gateway's :class:`~repro.service.net.RemoteBackend` immediately.  On any
    startup failure the already-spawned workers are torn down.  ``placement``
    names a ``placement.json`` file every worker pre-loads (``--placement``),
    so the fleet boots already holding the load-aware map instead of waiting
    for a ``placement_update`` push.
    """
    if count < 1:
        raise WorkerUnavailableError(f"worker count must be >= 1, got {count}")
    cluster = LocalWorkerCluster()
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--listen",
        "127.0.0.1:0",
        "--people",
        str(people),
        "--days",
        str(days),
        "--seed",
        str(seed),
        "--backend",
        backend,
        "--cache-size",
        str(cache_size),
        "--kernel",
        kernel,
    ]
    if workers is not None:
        command += ["--workers", str(workers)]
    if placement is not None:
        command += ["--placement", str(placement)]
    env = _repro_env()
    try:
        for _ in range(count):
            cluster.processes.append(
                subprocess.Popen(
                    command,
                    stdout=subprocess.PIPE,
                    env=env,
                    text=True,
                    bufsize=1,  # line buffered: the READY line arrives promptly
                )
            )
        for process in cluster.processes:
            address = await_ready(process, READY_MARKER, "{}:{}", "worker", startup_timeout)
            _ping(address)
            cluster.addresses.append(address)
    except BaseException:
        cluster.close()
        raise
    return cluster
