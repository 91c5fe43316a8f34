"""Fixtures shared by several test modules."""

import pytest

from mbsed.pipeline import set_blas_threads


@pytest.fixture
def blas_threads():
    """``set_blas_threads``, with the count as it was restored afterwards.

    Skips the test when numpy links no OpenBLAS whose thread count can be set.
    """
    previous = set_blas_threads(1)
    if previous is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be set")
    yield set_blas_threads
    set_blas_threads(previous)
