"""Independent jobs fanned out to forked worker processes.

Processes, as the numpy calls hold the GIL. Closures and the data they
hold need not pickle: each worker inherits the function and the items at
fork and is sent only item indices; results and exceptions come back by
pickle. Each worker runs BLAS on one thread, so that n workers on n cores
do not each start BLAS's own threads. The CLI runs BLAS on one thread in
its own process too (`pin_blas_to_one_thread`), so a result computed in a
worker has the bits of one computed in turn.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import multiprocessing
import os
from pathlib import Path

# OpenBLAS thread-count setters, by the names numpy's builds export them
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                 "scipy_openblas_set_num_threads", "openblas_set_num_threads")

# whether this process, or the one it was forked from, has called
# `pin_blas_to_one_thread`: OpenBLAS's thread count survives a fork
_BLAS_PINNED = False

# (fn, items) in a worker process, inherited from the pool that forked it;
# None in any other process
_INHERITED = None


def usable_cores() -> int:
    """The cores this process may run on."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cores or 1


def pin_blas_to_one_thread() -> None:
    """Set the loaded OpenBLAS, if one is found, to run one thread.

    Only the first call in a process looks for the library; later calls,
    and calls in workers forked after it, return at once.
    """
    global _BLAS_PINNED
    if _BLAS_PINNED:
        return
    _BLAS_PINNED = True
    try:
        mapped = Path("/proc/self/maps").read_text().split()
    except OSError:
        return
    for lib in sorted({f for f in mapped if "openblas" in f.lower() and f.startswith("/")}):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        setter = next((getattr(handle, n) for n in _BLAS_SETTERS if hasattr(handle, n)), None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)
            return


def _start_worker(fn, items) -> None:
    # the fork start method hands these arguments over in memory, unpickled
    global _INHERITED
    _INHERITED = fn, items
    pin_blas_to_one_thread()


def _call(index: int):
    fn, items = _INHERITED
    return fn(items[index])


def map_forked(fn, items, workers: int):
    """An iterator over `fn(item)` for each item, in item order.

    Up to `workers` forked processes run the items, capped at the item
    count and the usable cores; the iterator is returned once every item
    has finished. An item's exception is raised where its result is
    reached, as it would be in turn. With one worker, where the `fork`
    start method does not exist, or inside a worker (workers never start
    workers of their own), the items run in turn in this process, each
    when the iterator reaches it.
    """
    items = list(items)
    workers = min(workers, len(items), usable_cores())
    if (workers <= 1 or _INHERITED is not None
            or "fork" not in multiprocessing.get_all_start_methods()):
        return map(fn, items)
    # concurrent.futures loads its process pool on first use, not at import
    with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_start_worker, initargs=(fn, items)) as pool:
        futures = [pool.submit(_call, i) for i in range(len(items))]
    return (future.result() for future in futures)
