"""numpy's OpenBLAS thread count, and the one rule that keeps bits from
depending on it: every BLAS product in mbsed (``matmul``'s, the conv's
gemms and log-mel's filterbank product) runs inside ``one_thread()``,
where its bits follow from its operands alone. Parallelism comes only
from mbsed's own threads (the chunk pool of ``autodiff._run_parts`` and
``pipeline.map_clips``) and the ablation's worker processes, each sized
by ``threads()``.
"""

from __future__ import annotations

import contextlib
import functools
import threading

# OpenBLAS's thread-count setters, by the names scipy-openblas, 64-bit and
# plain builds export
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


@functools.lru_cache(maxsize=None)
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


def threads() -> int:
    """numpy's OpenBLAS thread count, read now; 1 without OpenBLAS."""
    calls = _thread_calls()
    return max(1, calls[1]()) if calls is not None else 1


def set_threads(n: int) -> int | None:
    """Give numpy's OpenBLAS n threads; return the previous count.

    Returns None, and changes nothing, when numpy has no OpenBLAS.
    """
    calls = _thread_calls()
    if calls is None:
        return None
    setter, getter = calls
    previous = getter()
    setter(n)
    return previous


# open one_thread blocks, and the count the last of them restores
_pins = 0
_unpinned: int | None = None
_pin_lock = threading.Lock()


@contextlib.contextmanager
def one_thread():
    """numpy's OpenBLAS at one thread inside the block.

    The count is process-wide: other work in the process meanwhile also
    gets one thread. Blocks may overlap, on any threads: the first to open
    saves the count and the last to close restores it, also when the block
    raises.
    """
    global _pins, _unpinned
    with _pin_lock:
        if _pins == 0:
            _unpinned = set_threads(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0 and _unpinned is not None:
                set_threads(_unpinned)
