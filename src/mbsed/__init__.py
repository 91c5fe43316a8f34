"""Multi-branch weakly-supervised sound event detection, desk scale.

Importing any part of the package first imports ``mbsed.blas``, which
leaves numpy's OpenBLAS at one thread for the rest of the process.
"""

import importlib

__version__ = "0.1.0"

# for that effect alone: log-mel relies on it and uses no name of mbsed.blas
importlib.import_module("mbsed.blas")
