"""Parent-side handling of a serving worker that dies during start-up."""

from __future__ import annotations

import sys

import pytest

from repro.serve import worker as worker_module
from repro.serve.worker import BackendSpec, WorkerProcess


def _exit_at_once(spec, config, conn) -> None:
    """Spawn target that exits before reporting ready."""
    sys.exit(3)


def test_child_exiting_before_ready_is_reaped(monkeypatch):
    monkeypatch.setattr(worker_module, "worker_main", _exit_at_once)
    handle = WorkerProcess(0, BackendSpec(kind="local", root="unused"), {})
    with pytest.raises(RuntimeError, match="worker 0 failed to start: exited with code 3"):
        handle.start()
    assert handle.exitcode == 3
    assert not handle.alive
    # The handle is reusable: a retry starts a new child instead of
    # reporting that one is already running.
    with pytest.raises(RuntimeError, match="failed to start"):
        handle.start()
