"""Two independent branches side by side on one helper thread.

``semisort`` and ``reorganize`` split their independent steps into two
branches and hand them to ``fork_join``.  On two or more CPUs the first
branch runs on one helper thread while the caller runs the second; the
numpy calls in either branch release the interpreter lock, so the two
overlap.  The join merges the branches' charges in the order a sequential
run would have made them, so work and rounds never tell which way a fork
ran.  A branch writes whatever outlives the join into arrays the caller
allocated: an array the helper allocated itself comes from the helper's
own malloc arena, which hands freed pages back to the system, so each call
would fault them in afresh.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from .meter import WorkMeter

# The one helper thread: (owning pid, executor, lock held while a fork is
# in flight), started on first use, so importing the module starts no thread.
_helper: tuple[int, ThreadPoolExecutor, threading.Lock] | None = None


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def can_fork() -> bool:
    """Whether ``fork_join`` would now run its branches side by side: the
    process may use more than one CPU and no fork is in flight."""
    if _cpus() < 2:
        return False
    helper = _helper
    return helper is None or helper[0] != os.getpid() or not helper[2].locked()


def fork_join(
    meter: WorkMeter,
    first: Callable[[WorkMeter], Any],
    second: Callable[[WorkMeter], Any],
    fork: bool,
) -> tuple[Any, Any]:
    """``(first(meter), second(meter))``, run side by side when ``fork`` holds,
    the process may use more than one CPU and no other fork is in flight;
    inline otherwise.

    Side by side, ``first`` runs on the helper thread and ``second`` on the
    caller, each charging a child meter.  The join then does what a
    sequential run would: it merges ``first``'s meter, raises ``first``'s
    exception if there is one (dropping ``second``'s meter, which that run
    would never have charged), and otherwise merges ``second``'s meter and
    raises its exception if there is one.  A fork requested inside either
    branch, or by another thread meanwhile, runs inline, so no branch ever
    waits for the helper thread (``reorganize`` integer-sorts in a branch,
    and the sort's semisort asks to fork).
    """
    if not fork or _cpus() < 2:
        return first(meter), second(meter)
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        # A forked child inherits the executor but not its thread, and the
        # lock as another thread may have held it.
        _helper = (
            os.getpid(),
            ThreadPoolExecutor(1, thread_name_prefix="semipar-helper"),
            threading.Lock(),
        )
    _, executor, in_flight = _helper
    if not in_flight.acquire(blocking=False):
        return first(meter), second(meter)
    m1, m2 = WorkMeter(), WorkMeter()
    try:
        future = executor.submit(first, m1)
        try:
            r2, error = second(m2), None
        except Exception as exc:
            r2, error = None, exc
        try:
            r1 = future.result()
        finally:
            meter.merge(m1)
    finally:
        in_flight.release()
    meter.merge(m2)
    if error is not None:
        raise error
    return r1, r2
