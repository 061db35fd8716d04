"""The package's one fan-out: a work-sharing map over threads.

numpy releases the interpreter lock in its FFTs, draws and sums, so
independent grid solves and Monte Carlo blocks run on several CPUs at once
from plain threads.
"""

from __future__ import annotations

import os
import threading

__all__ = ["cpu_count", "thread_map"]


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
    exception is raised here once every worker has stopped.
    """
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
