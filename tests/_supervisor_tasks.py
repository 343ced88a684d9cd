"""Executor functions for :mod:`tests.test_supervisor`'s worker pools.

Workers resolve executors by qualified name (``module:function``), so
these must live in an importable module — a test-local ``def`` would
not survive the trip through ``spawn``.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path


def echo(payload):
    """Return the payload unchanged."""
    return payload


def boom(payload):
    """Always fail, deterministically."""
    raise ValueError(f"boom:{payload[0]}")


def die(payload):
    """SIGKILL the worker mid-cell (no Python teardown runs)."""
    os.kill(os.getpid(), signal.SIGKILL)


def freeze(payload):
    """SIGSTOP the worker on the first attempt (a marker file says which).

    A stopped worker keeps its pipe open and its heartbeat thread
    stops with it: only the heartbeat check can tell it is frozen.
    """
    marker = Path(payload[0]) / "frozen-once"
    if not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGSTOP)
    return "thawed"


def run_context(payload):
    """The worker's run context, as the snapshot it would hand on.

    With a marker directory, the first attempt SIGKILLs its worker, so
    the answer comes from the respawned one.
    """
    from repro import context

    if payload:
        marker = Path(payload[0]) / "killed-once"
        if not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGKILL)
    return context.current().snapshot()


def flaky(payload):
    """Fail (by SIGKILL) until a marker file exists, then succeed.

    The marker directory is shared with the parent, so the test can
    count how many attempts the poison phase consumed.
    """
    marker_dir, task_id, fail_times = Path(payload[0]), payload[1], int(payload[2])
    attempts = len(list(marker_dir.glob(f"{task_id}.attempt.*")))
    (marker_dir / f"{task_id}.attempt.{attempts}").touch()
    if attempts < fail_times:
        os.kill(os.getpid(), signal.SIGKILL)
    return ("ok", task_id, attempts + 1)


def imports(payload):
    """What the worker has imported so far: whether numpy is loaded,
    and which ``repro.experiments`` modules are."""
    import sys

    return (
        "numpy" in sys.modules,
        sorted(name for name in sys.modules if name.startswith("repro.experiments")),
    )
