"""mbsed's thread count, its one pool of threads, and the one rule that
keeps bits from depending on either: numpy's OpenBLAS runs at one thread.

Importing this module reads numpy's OpenBLAS thread count once
(``OPENBLAS_NUM_THREADS``, else the CPU count), keeps it as mbsed's own
(``threads()``), and sets OpenBLAS to one thread for the rest of the
process, other numpy work in it included. So every BLAS product in mbsed
(``matmul``'s, the conv's gemms and log-mel's filterbank product) has bits
that follow from its operands alone, and no call site has to ask for it.
Parallelism comes only from the process's one pool of ``threads()``
threads, which ``run_in_order`` runs tasks on (``autodiff._run_parts``'
parts and ``pipeline.map_clips``' clips), and the ablation's worker
processes: ``run_ablation`` starts ``worker_count()`` of them (one per
CPU, or ``MBSED_WORKERS``), and each gets ``cpu_count() // workers``
threads (at least one) as its ``threads()``. A later change to
OpenBLAS's thread count no longer reaches mbsed; ``set_threads`` changes
mbsed's. A numpy without OpenBLAS runs mbsed on one thread.
"""

from __future__ import annotations

import collections
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Iterable

# OpenBLAS's thread-count setters, by the names scipy-openblas, 64-bit and
# plain builds export
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _thread_calls():
    """(setter, getter) of the OpenBLAS numpy links against, or None.

    A handle on numpy's compiled core finds the library by ``dlsym``, which
    searches the handle's dependency tree.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for name in _SETTERS:
        setter = getattr(lib, name, None)
        getter = getattr(lib, name.replace("_set_", "_get_"), None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def _take_openblas_threads() -> int:
    """OpenBLAS's thread count, after which OpenBLAS has one; 1 without it."""
    calls = _thread_calls()
    if calls is None:
        return 1
    setter, getter = calls
    count = max(1, getter())
    setter(1)
    return count


_count = _take_openblas_threads()


# ``marked`` on mbsed's pool threads
_pool_thread = threading.local()


def threads() -> int:
    """mbsed's thread count: 1 on its pool threads, else the count read at
    import or last given to ``set_threads``."""
    return 1 if getattr(_pool_thread, "marked", False) else _count


def set_threads(n: int) -> int:
    """Give mbsed n threads; return the previous count. OpenBLAS stays at one."""
    global _count
    previous, _count = _count, n
    return previous


def _mark_pool_thread() -> None:
    _pool_thread.marked = True


# ((pid, threads), pool) of the last run_in_order that needed threads. A pool
# made before fork has no threads in the child, so a new pid gets its own.
_pool: tuple[tuple[int, int], ThreadPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _pool_of_this_process() -> ThreadPoolExecutor:
    global _pool
    key = (os.getpid(), _count)
    with _pool_lock:
        if _pool is None or _pool[0] != key:
            if _pool is not None and _pool[0][0] == key[0]:
                _pool[1].shutdown(wait=False)
            _pool = (key, ThreadPoolExecutor(
                _count, thread_name_prefix="mbsed-pool", initializer=_mark_pool_thread
            ))
        return _pool[1]


def run_in_order(tasks: Iterable[Callable], running: int, consume: Callable) -> None:
    """``consume(task())`` for each of ``tasks``, consumed in task order on
    the calling thread. With ``running`` at most 1 the tasks run inline;
    otherwise on the process's pool of ``threads()`` threads, on which
    ``threads()`` is 1 (so their own work runs inline), with at most
    ``2 * running`` started and not yet consumed. If a task raises, the
    tasks not yet started are dropped, the started ones finish, and the
    first exception in task order propagates.
    """
    if running <= 1:
        for task in tasks:
            consume(task())
        return
    pool = _pool_of_this_process()
    pending = collections.deque()
    try:
        for task in tasks:
            if len(pending) == 2 * running:
                consume(pending.popleft().result())  # re-raises the task's exception
            pending.append(pool.submit(task))
        while pending:
            consume(pending.popleft().result())
    except BaseException:
        for future in pending:
            future.cancel()
        wait(pending)
        raise
