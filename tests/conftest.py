"""Fixtures shared by several test modules."""

import pytest

from mbsed import blas


@pytest.fixture
def blas_threads():
    """``blas.set_threads``, starting from 1, with the count as it was
    restored afterwards."""
    previous = blas.set_threads(1)
    yield blas.set_threads
    blas.set_threads(previous)
