"""Fixtures shared by several test modules."""

import pytest

from mbsed import blas


@pytest.fixture
def blas_threads():
    """``blas.set_threads``, with the count as it was restored afterwards.

    Skips the test when numpy links no OpenBLAS whose thread count can be set.
    """
    previous = blas.set_threads(1)
    if previous is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    yield blas.set_threads
    blas.set_threads(previous)
