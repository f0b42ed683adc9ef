"""Bounded shell commands for the compile probe, the compile and the run.

Each command runs in its own session under a time limit, and when it ends,
however it ends, its whole process group is killed, so nothing it started
outlives it.  An interrupt reaches only the main thread, so `kill_running`
lets it kill the groups that other threads are waiting on.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path

DEFAULT_TIMEOUT_SECONDS = 180.0

_running: set[int] = set()      # process groups started and not yet killed
_running_lock = threading.Lock()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass    # every process of the group has already exited


def kill_running() -> None:
    """Kill the process group of every command that run_shell is running in
    this process."""
    with _running_lock:
        for pgid in _running:
            _kill_group(pgid)


def run_shell(cmd: str, timeout_seconds: float,
              cwd: str | Path | None = None) -> tuple[int | None, float]:
    """Run `cmd` through the shell with its output discarded.

    Returns its exit status, or None when it runs past timeout_seconds,
    and the seconds from its spawn to its exit.  Raises OSError when the
    shell cannot be spawned.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, shell=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, cwd=cwd, start_new_session=True)
    with _running_lock:
        _running.add(proc.pid)
    exited = []

    def reap():
        proc.wait()
        exited.append(time.perf_counter())

    # A blocking wait in a thread wakes the moment the shell exits;
    # Popen.wait(timeout) would poll with sleeps of 1 ms and more.
    reaper = threading.Thread(target=reap, daemon=True)
    reaper.start()
    try:
        reaper.join(timeout_seconds)
        timed_out = reaper.is_alive()
    finally:
        # the shell leads its own process group; this also kills what it
        # left in the background, or everything on a timeout or interrupt
        with _running_lock:
            _kill_group(proc.pid)
            _running.discard(proc.pid)
        reaper.join()
    return (None if timed_out else proc.returncode), exited[0] - start
