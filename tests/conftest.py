"""Test-session set-up: BLAS pinned to one thread before numpy loads.

Feature extraction already runs one stream per usable core, and BLAS
threads of its own on top of those oversubscribe the cores. An explicit
setting in the environment still wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
