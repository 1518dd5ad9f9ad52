import concurrent.futures
import os

import pytest

from mdp_tcm import fanout
from mdp_tcm.fanout import map_forked


def _cores(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def pool_sizes(monkeypatch) -> list:
    """The worker count of each process pool started from now on."""
    sizes = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return sizes


def _square_and_pid(x):
    return x * x, os.getpid()


def test_results_come_back_in_item_order(monkeypatch):
    _cores(monkeypatch, 2)
    results = list(map_forked(_square_and_pid, range(7), 2))
    assert [r for r, _ in results] == [x * x for x in range(7)]
    assert os.getpid() not in {pid for _, pid in results}


@pytest.mark.parametrize("workers, items, cores, want", [
    (8, 3, 8, 3), (8, 5, 2, 2), (2, 5, 8, 2)])
def test_workers_capped_at_items_and_cores(monkeypatch, workers, items, cores, want):
    _cores(monkeypatch, cores)
    started = pool_sizes(monkeypatch)
    assert [r for r, _ in map_forked(_square_and_pid, range(items), workers)] \
        == [x * x for x in range(items)]
    assert started == [want]


@pytest.mark.parametrize("workers, fork", [(1, True), (2, False)],
                         ids=["one-worker", "no-fork"])
def test_runs_in_turn_here(monkeypatch, workers, fork):
    _cores(monkeypatch, 2)
    if not fork:
        monkeypatch.setattr(fanout.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
    calls = []

    def record(x):
        calls.append(x)
        return x, os.getpid()

    results = map_forked(record, range(3), workers)
    assert calls == []  # each item runs when the iterator reaches it
    assert next(results) == (0, os.getpid())
    assert calls == [0]
    assert list(results) == [(1, os.getpid()), (2, os.getpid())]


def test_runs_in_turn_inside_a_worker(monkeypatch):
    _cores(monkeypatch, 2)

    def nested(_):
        return os.getpid(), [pid for _, pid in map_forked(_square_and_pid, range(3), 2)]

    for worker, inner in map_forked(nested, range(2), 2):
        assert worker != os.getpid()
        assert inner == [worker] * 3


def test_exception_is_raised_at_its_item(monkeypatch):
    _cores(monkeypatch, 2)

    def fail_at_one(x):
        if x == 1:
            raise ValueError(f"item {x} failed in pid {os.getpid()}")
        return x

    results = map_forked(fail_at_one, range(3), 2)
    assert next(results) == 0
    with pytest.raises(ValueError, match="item 1 failed in pid") as info:
        next(results)
    assert f"pid {os.getpid()}" not in str(info.value)


def test_blas_is_looked_for_once_per_process(monkeypatch):
    _cores(monkeypatch, 2)
    scans, opened = [], []
    read_text, cdll = fanout.Path.read_text, fanout.ctypes.CDLL
    monkeypatch.setattr(fanout.Path, "read_text",
                        lambda self: scans.append(str(self)) or read_text(self))
    monkeypatch.setattr(fanout.ctypes, "CDLL", lambda lib: opened.append(lib) or cdll(lib))
    monkeypatch.setattr(fanout, "_BLAS_PINNED", False)
    fanout.pin_blas_to_one_thread()
    fanout.pin_blas_to_one_thread()
    assert scans == ["/proc/self/maps"] and len(opened) <= 1
    # a worker forked after the pin inherits it and looks for nothing
    assert list(map_forked(lambda _: (len(scans), len(opened)), range(2), 2)) == [
        (1, len(opened))] * 2
