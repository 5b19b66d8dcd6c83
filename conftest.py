"""Run the test suite with one BLAS and OpenMP thread.

pytest loads this file before it imports any test module, so before numpy
starts its thread pool.  The banded factors run several times slower under
a second BLAS thread on a 2-core host than under one; `bench/run.py` pins
the same setting.  A value already set in the environment is kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
