"""mbsed's thread count, and the one rule that keeps bits from depending
on it: numpy's OpenBLAS runs at one thread.

Importing this module reads numpy's OpenBLAS thread count once
(``OPENBLAS_NUM_THREADS``, else the CPU count), keeps it as mbsed's own
(``threads()``), and sets OpenBLAS to one thread for the rest of the
process, other numpy work in it included. So every BLAS product in mbsed
(``matmul``'s, the conv's gemms and log-mel's filterbank product) has bits
that follow from its operands alone, and no call site has to ask for it.
Parallelism comes only from mbsed's own threads (the chunk pool of
``autodiff._run_parts`` and ``pipeline.map_clips``) and the ablation's
worker processes: ``run_ablation`` starts ``worker_count()`` of them (one
per CPU, or ``MBSED_WORKERS``), and each gets ``cpu_count() // workers``
threads (at least one) as its ``threads()``. A later change to
OpenBLAS's thread count no longer reaches mbsed; ``set_threads`` changes
mbsed's. A numpy without OpenBLAS runs mbsed on one thread.
"""

from __future__ import annotations

import threading

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


def init_pool_thread() -> None:
    """Initializer of mbsed's thread pools: ``threads()`` is 1 on the calling
    thread, so the work a pool thread runs (a clip's ``conv_block``) runs its
    parts inline rather than on threads of its own."""
    _pool_thread.marked = True
