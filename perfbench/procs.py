"""Launching the program's CLIs as child processes, and timing their start-up.

Every service the benchmark starts goes through :class:`Service`, whose
``stop`` ends the whole process group and waits for it, so a run leaves
nothing behind even when a check fails half-way.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_PORT = re.compile(r"http://[0-9.]+:(\d+)")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def cli(*args: str, importtime: bool = False) -> list[str]:
    """Command line for ``python -m repro ARGS``."""
    head = [sys.executable]
    if importtime:
        head += ["-X", "importtime"]
    return head + ["-m", "repro", *args]


def import_seconds(stderr_text: str) -> float | None:
    """Cumulative ``import repro`` time from ``-X importtime`` output."""
    for line in stderr_text.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "repro":
            return int(parts[1]) / 1e6
    return None


def run_cli_once(workdir: Path, *args: str, importtime: bool = False) -> tuple[float, float | None]:
    """Run a short CLI command to exit; ``(wall seconds, import seconds)``."""
    err_path = workdir / f"cli-{time.monotonic_ns()}.err"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cli(*args, importtime=importtime),
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=err,
        )
        # wait() with a timeout polls in steps of up to 50 ms, which would
        # quantize the measurement; a watchdog bounds the blocking wait.
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    text = err_path.read_text()
    if code != 0:
        raise RuntimeError(f"repro {' '.join(args)} exited {code}: {text[-500:]}")
    return wall, import_seconds(text) if importtime else None


def http_json(port: int, method: str, path: str, body=None, timeout: float = 30.0):
    """One request to a local service; ``(status, parsed JSON or text)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read().decode()
        try:
            return response.status, json.loads(raw)
        except json.JSONDecodeError:
            return response.status, raw
    finally:
        conn.close()


def metrics_text(port: int) -> str:
    status, text = http_json(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics on port {port} answered {status}")
    return text


def _tree(root_pid: int) -> list[int]:
    """``root_pid`` and all its live descendants."""
    parents: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2 :].split()
        parents[int(entry)] = int(fields[1])
    tree = [root_pid]
    frontier = [root_pid]
    while frontier:
        pid = frontier.pop()
        kids = [child for child, parent in parents.items() if parent == pid]
        tree += kids
        frontier += kids
    return tree


def peak_rss_mb(root_pid: int) -> float:
    """Sum of the peak resident sets (VmHWM) of a live process tree, in MB."""
    total_kb = 0
    for pid in _tree(root_pid):
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Service:
    """One long-running ``python -m repro ...`` service.

    stdout and stderr go to files in ``workdir`` (a pipe nobody reads
    could fill and block the service).  ``wait_ready`` returns once the
    service printed its address and ``/healthz`` answers ``ok``.
    """

    def __init__(self, workdir: Path, name: str, args: list[str], *, importtime: bool = False) -> None:
        self.name = name
        self.out_path = workdir / f"{name}-{time.monotonic_ns()}.out"
        self.err_path = self.out_path.with_suffix(".err")
        self.started = time.perf_counter()
        with open(self.out_path, "w") as out, open(self.err_path, "w") as err:
            self.proc = subprocess.Popen(
                cli(*args, importtime=importtime),
                cwd=ROOT,
                env=child_env(),
                stdout=out,
                stderr=err,
                start_new_session=True,
            )
        self.port: int | None = None

    def _fail(self, why: str):
        tail = self.err_path.read_text()[-800:] if self.err_path.exists() else ""
        raise RuntimeError(f"{self.name}: {why}\n{tail}")

    def wait_ready(self, timeout_s: float = 120.0) -> float:
        deadline = self.started + timeout_s
        while self.port is None:
            match = _PORT.search(self.out_path.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None:
                self._fail(f"exited {self.proc.returncode} before serving")
            if time.perf_counter() > deadline:
                self._fail("did not print its address in time")
            time.sleep(0.005)
        while True:
            try:
                status, body = http_json(self.port, "GET", "/healthz", timeout=5.0)
                if status == 200 and isinstance(body, dict) and body.get("status") == "ok":
                    break
            except OSError:
                pass
            if self.proc.poll() is not None:
                self._fail(f"exited {self.proc.returncode} before healthy")
            if time.perf_counter() > deadline:
                self._fail("not healthy in time")
            time.sleep(0.005)
        return time.perf_counter() - self.started

    def import_s(self) -> float | None:
        return import_seconds(self.err_path.read_text())

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """Graceful stop (SIGINT), then the whole group if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        return self.proc.wait(timeout=20)


class Services:
    """Stops every service it started when the block exits, even on error."""

    def __init__(self) -> None:
        self.started: list[Service] = []

    def start(self, *args, **kwargs) -> Service:
        service = Service(*args, **kwargs)
        self.started.append(service)
        return service

    def __enter__(self) -> "Services":
        return self

    def __exit__(self, *_exc) -> None:
        for service in reversed(self.started):
            service.stop()
        self.started.clear()


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
