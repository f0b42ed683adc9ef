"""Bounded shell commands for the compile probe, the compile and the run.

Each command runs in its own session under a time limit, and when it ends,
however it ends, its whole process group is killed, so nothing it started
outlives it.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from pathlib import Path

DEFAULT_TIMEOUT_SECONDS = 180.0


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
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass    # every process of the group has already exited
        reaper.join()
    return (None if timed_out else proc.returncode), exited[0] - start
