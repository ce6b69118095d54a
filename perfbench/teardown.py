"""Checked teardown: a run must leave no process, segment or thread behind.

:class:`LeakGuard` notes the shared-memory segments and threads that
exist when a run starts.  After the run has closed its servers,
:meth:`LeakGuard.leftovers` reports every ``/dev/shm`` entry that is new
since the start, every child process still alive and every thread the
run started that has not ended.  Processes and threads get a short grace
period, because a closed queue's feeder thread ends just after ``close``.

Shared memory starts Python's resource-tracker process, which would
outlive the run; it is stopped, and waited for, after the segment check,
since stopping it unlinks any segment still registered.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.resource_tracker
import os
import threading
import time
from typing import List, Set

SHM_DIR = "/dev/shm"


def _shm_entries() -> Set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _child_pids() -> Set[int]:
    """Every live child of this process, however it was started."""
    pids: Set[int] = set()
    try:
        tasks = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for task in tasks:
        try:
            with open(f"/proc/self/task/{task}/children") as children:
                pids.update(int(pid) for pid in children.read().split())
        except OSError:
            continue
    return pids


class LeakGuard:
    def __init__(self) -> None:
        self._shm = _shm_entries()
        self._threads = set(threading.enumerate())

    def leftovers(self, grace_s: float = 5.0) -> List[str]:
        """Describe everything the run left behind; empty when clean."""
        problems: List[str] = []
        new_shm = sorted(_shm_entries() - self._shm)
        if new_shm:
            problems.append(f"new {SHM_DIR} entries: {new_shm}")
        multiprocessing.resource_tracker._resource_tracker._stop()
        deadline = time.monotonic() + grace_s
        while True:
            # active_children() also reaps children that already exited.
            children = multiprocessing.active_children()
            pids = _child_pids()
            threads = [
                t for t in threading.enumerate()
                if t not in self._threads and t.is_alive()
            ]
            if (not children and not pids and not threads) or (
                time.monotonic() > deadline
            ):
                break
            time.sleep(0.05)
        if children:
            problems.append(
                "live multiprocessing children: "
                + ", ".join(f"{c.name} pid={c.pid}" for c in children)
            )
        if pids:
            problems.append(f"live child processes: {sorted(pids)}")
        if threads:
            problems.append(
                "threads still running: "
                + ", ".join(
                    f"{t.name}{'' if t.daemon else ' (non-daemon)'}"
                    for t in threads
                )
            )
        return problems
