"""The package's one fan-out: a work-sharing map over threads.

numpy releases the interpreter lock in its FFTs, draws and sums, so
independent grid solves and Monte Carlo blocks run on several CPUs at once
from plain threads.  Only a fan-out holds one working set per CPU at once,
so ``cli.main`` gives the heap back after a command that ran one.
"""

from __future__ import annotations

import os
import threading

__all__ = ["cpu_count", "thread_map"]
fan_outs = 0        # calls of thread_map in this process


def cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_map(fn, items) -> list:
    """[fn(x) for x in items], on W = min(CPUs, len(items)) workers.

    The calling thread is worker 0, so one item or one CPU starts no
    thread.  Worker w runs item w first; after that each worker takes the
    next unclaimed item as soon as it is free, so a slow CPU holds back at
    most the item it is on, not a fixed share.  Results come back in input
    order.  Once an item has raised, no worker takes another, and the first
    exception is raised here once every worker has stopped.  Each call,
    whether it returns or raises, adds one to ``fan_outs``.
    """
    global fan_outs
    fan_outs += 1
    items = list(items)
    workers = min(cpu_count(), len(items))
    results = [None] * len(items)
    errors = []
    claim = threading.Lock()
    unclaimed = workers

    def work(i):
        nonlocal unclaimed
        try:
            while True:
                results[i] = fn(items[i])
                with claim:
                    if errors or unclaimed == len(items):
                        return
                    i, unclaimed = unclaimed, unclaimed + 1
        except BaseException as exc:        # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,), daemon=True)
               for w in range(1, workers)]
    for t in threads:
        t.start()
    if workers:
        work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results
