"""Run the test suite with single-threaded BLAS.

The dense eigensolves in the tests are small; a multithreaded BLAS gains
nothing on them and, beside any other busy process, oversubscribes the CPUs
and makes them several times slower.  The variables must be set before
anything imports numpy, so they live in this root conftest, which pytest
loads before it collects any test module.  A value already set in the
environment wins.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
