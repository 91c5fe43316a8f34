"""mbsed's thread count, and numpy's OpenBLAS held at one thread."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import mbsed
from mbsed import blas
from mbsed.pipeline import cpu_count


def openblas_threads() -> int:
    """numpy's OpenBLAS thread count, read from the library; 1 without it."""
    calls = blas._thread_calls()
    return 1 if calls is None else calls[1]()


def test_import_keeps_the_count_and_leaves_openblas_at_one_thread():
    if blas._thread_calls() is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be read")
    src = Path(mbsed.__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "3", "PYTHONPATH": str(src)}
    code = (
        "import mbsed.autodiff\n"
        "from mbsed import blas\n"
        "print(blas._thread_calls()[1](), blas.threads())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    # OpenBLAS takes at most one thread per CPU it may run on
    assert proc.stdout.split() == ["1", str(min(3, cpu_count()))]


def test_set_threads_leaves_openblas_alone(blas_threads):
    assert blas_threads(4) == 1
    assert blas.threads() == 4 and openblas_threads() == 1
    assert blas_threads(2) == 4
    assert blas.threads() == 2 and openblas_threads() == 1


def test_pool_threads_count_one_and_others_keep_the_count(blas_threads):
    blas_threads(3)
    seen = []
    blas.run_in_order(
        [lambda: (threading.current_thread().name, blas.threads())] * 4, 2, seen.append
    )
    assert len(seen) == 4
    assert all(name.startswith("mbsed-pool") and count == 1 for name, count in seen)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(blas.threads()))
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive() and seen == [3]
    assert blas.threads() == 3
