"""Two independent branches side by side on one helper thread.

``semisort`` and ``reorganize`` split their independent steps into two
branches and hand them to ``fork_join`` with the item count of the smaller
branch; ``fork_join`` alone decides from it whether they run side by side.
Side by side, the first branch runs on one helper thread while the caller
runs the second; the numpy calls in either branch release the interpreter
lock, so the two overlap.  On either path each branch charges
a child meter of its own, and the join adds their work in sequential
order and the rounds of the deeper branch, so work and rounds never tell
which way a fork ran.  A branch writes whatever outlives the join into
arrays the caller allocated (``take_into``): an array the helper allocated
itself comes from the helper's own malloc arena, which hands freed pages
back to the system, so each call would fault them in afresh.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

import numpy as np

from .meter import WorkMeter

# The smallest branch worth a fork: a branch of this many items saves
# milliseconds, against a hand-off of about 50 us (an empty fork on a 2-CPU
# VM).
FORK_MIN = 1 << 16

# The one helper thread: (owning pid, executor, lock held while a fork is
# in flight), started on first use, so importing the module starts no thread.
_helper: tuple[int, ThreadPoolExecutor, threading.Lock] | None = None


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def fork_join(
    meter: WorkMeter,
    first: Callable[[WorkMeter], Any],
    second: Callable[[WorkMeter], Any],
    size: int,
) -> tuple[Any, Any]:
    """``(first(m1), second(m2))``, each branch charging a fresh child meter,
    run side by side when ``size``, the item count of the smaller branch,
    reaches ``FORK_MIN``, the process may use more than one CPU and no other
    fork is in flight; in turn on the caller otherwise.

    Side by side, ``first`` runs on the helper thread and ``second`` on the
    caller.  Either way the join does what a sequential run would: if
    ``first`` raised, it joins only ``first``'s meter into ``meter`` and
    raises that exception (a sequential run would never have started
    ``second``); otherwise it joins both meters (``WorkMeter.join``: work
    in order, the deeper branch's rounds) and raises ``second``'s exception
    if there is one.  A fork requested inside either branch, or by another
    thread meanwhile, runs in turn, so no branch ever waits for the helper
    thread (``reorganize`` integer-sorts in a branch when there are many
    pieces, and the sort's semisort asks to fork).
    """
    m1, m2 = WorkMeter(), WorkMeter()
    in_flight = _claim_helper() if size >= FORK_MIN and _cpus() >= 2 else None
    if in_flight is None:
        r1, e1 = _run(first, m1)
        r2, e2 = _run(second, m2) if e1 is None else (None, None)
    else:
        try:
            future = _helper[1].submit(_run, first, m1)
            r2, e2 = _run(second, m2)
            r1, e1 = future.result()
        finally:
            in_flight.release()
    if e1 is not None:
        meter.join(m1)
        raise e1
    meter.join(m1, m2)
    if e2 is not None:
        raise e2
    return r1, r2


def _run(branch: Callable[[WorkMeter], Any], meter: WorkMeter) -> tuple[Any, Exception | None]:
    """``branch(meter)`` and None, or None and the exception it raised."""
    try:
        return branch(meter), None
    except Exception as exc:
        return None, exc


def _claim_helper() -> threading.Lock | None:
    """The helper's in-flight lock, acquired, or None if a fork is in flight."""
    global _helper
    if _helper is None or _helper[0] != os.getpid():
        # A forked child inherits the executor but not its thread, and the
        # lock as another thread may have held it.
        _helper = (
            os.getpid(),
            ThreadPoolExecutor(1, thread_name_prefix="semipar-helper"),
            threading.Lock(),
        )
    in_flight = _helper[2]
    return in_flight if in_flight.acquire(blocking=False) else None


def take_into(x: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``x[idx]`` written into ``out``, an array the caller allocated.  Mode
    "clip" lets ``np.take`` write in place (mode "raise" buffers ``out``);
    every index is in range, so it clips nothing."""
    np.take(x, idx, out=out, mode="clip")
