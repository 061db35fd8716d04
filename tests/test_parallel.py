"""The package's work-sharing thread map: order, workers, errors, stopping."""

import sys
import threading
import time

import pytest

from ruinbounds import _parallel
from ruinbounds._parallel import thread_map


@pytest.fixture
def cpus(monkeypatch):
    def set_cpus(n):
        monkeypatch.setattr(_parallel, "cpu_count", lambda: n)
    return set_cpus


@pytest.fixture
def started_threads(monkeypatch):
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return started


def _wait_for_threads(count, timeout=10.0):
    """Wait until no more than count threads are alive."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > count and time.monotonic() < deadline:
        time.sleep(1e-3)


def test_results_in_input_order(cpus):
    cpus(3)

    def later_items_finish_first(x):
        time.sleep(1e-3 * (12 - x))
        return x * x

    assert thread_map(later_items_finish_first, range(12)) == [x * x for x in range(12)]


def test_each_item_runs_once_under_frequent_switches(cpus):
    # more workers than cores and a thread switch every microsecond: a lost
    # update of the shared counter would run an item twice or skip one
    cpus(8)
    ran = []

    def record(x):
        ran.append(x)
        return 3 * x

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = thread_map(record, range(2000))
    finally:
        sys.setswitchinterval(switch)
    assert out == [3 * x for x in range(2000)]
    assert sorted(ran) == list(range(2000))


def test_no_items(cpus, started_threads):
    cpus(4)
    assert thread_map(lambda x: x, []) == []
    assert started_threads == []


@pytest.mark.parametrize("n_cpus, n_items", [(2, 6), (2, 2), (3, 8), (5, 3), (4, 4)])
def test_min_cpus_items_threads_each_run_an_item(cpus, n_cpus, n_items):
    cpus(n_cpus)
    ran_on = {}

    def record(x):
        ran_on[x] = threading.current_thread()
        time.sleep(2e-3)
        return x

    assert thread_map(record, range(n_items)) == list(range(n_items))
    workers = min(n_cpus, n_items)
    assert len(set(ran_on.values())) == workers
    # worker w runs item w first, and the calling thread is worker 0
    assert len({ran_on[w] for w in range(workers)}) == workers
    assert ran_on[0] is threading.current_thread()


def test_a_free_worker_takes_the_next_item(cpus):
    # worker 0 stays on item 0 until every other item is done, which only
    # work sharing allows: round robin would leave items 2, 4, ... to it
    cpus(2)
    ran_on = {}

    def fn(x):
        if x == 0:
            deadline = time.monotonic() + 5.0
            while len(ran_on) < 9 and time.monotonic() < deadline:
                time.sleep(1e-3)
        ran_on[x] = threading.current_thread()
        return x

    assert thread_map(fn, range(10)) == list(range(10))
    assert ran_on[0] is threading.current_thread()
    assert ran_on[1] is not ran_on[0]
    assert {ran_on[x] for x in range(1, 10)} == {ran_on[1]}


@pytest.mark.parametrize("n_cpus, n_items", [(1, 7), (4, 1), (1, 1)])
def test_one_item_or_one_cpu_starts_no_thread(cpus, started_threads, n_cpus,
                                              n_items):
    cpus(n_cpus)
    ran_on = set()

    def record(x):
        ran_on.add(threading.current_thread())
        return -x

    assert thread_map(record, range(n_items)) == [-x for x in range(n_items)]
    assert started_threads == []
    assert ran_on == {threading.current_thread()}


@pytest.mark.parametrize("failing", [0, 1], ids=["worker_0", "worker_thread"])
def test_error_reaches_caller_and_every_thread_stops(cpus, failing):
    cpus(2)
    raised_in = []

    def fn(x):
        if x == failing:
            raised_in.append(threading.current_thread())
            raise ValueError(f"item {x}")
        time.sleep(1e-3)
        return x

    before = threading.active_count()
    with pytest.raises(ValueError, match=f"item {failing}"):
        thread_map(fn, range(6))
    assert (raised_in[0] is threading.main_thread()) == (failing == 0)
    assert threading.active_count() == before


def test_no_item_starts_after_a_recorded_error(cpus):
    # item 1 fails on the worker thread while worker 0 is still on item 0;
    # worker 0 finishes item 0 only once that thread has exited, so the
    # error is recorded before worker 0 could take another item
    cpus(2)
    before = threading.active_count()
    started = []

    def fn(x):
        started.append(x)
        if x == 0:
            _wait_for_threads(before)
        if x == 1:
            raise RuntimeError("item 1")
        return x

    with pytest.raises(RuntimeError, match="item 1"):
        thread_map(fn, range(10))
    assert sorted(started) == [0, 1]
    assert threading.active_count() == before
