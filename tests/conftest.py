"""Test-session setup shared by every test module."""

import os

# One BLAS thread, pzid's default, set before numpy or scipy is first
# imported: their two OpenBLAS builds each read it once, when loaded.  With
# unequal thread counts, NumPy's LAPACK and SciPy's LAPACK round the same
# problem differently, and the frozen NumPy references of the order scan
# could not be compared bit for bit with its direct SciPy LAPACK calls.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
