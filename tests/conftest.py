"""Test-session setup shared by every test module."""

# pzid first, before numpy or scipy: importing it sets pzid's default of one
# BLAS thread, which their two OpenBLAS builds each read once, when loaded.
# With unequal thread counts, NumPy's LAPACK and SciPy's LAPACK round the
# same problem differently, and the frozen NumPy references of the order
# scan could not be compared bit for bit with its direct SciPy LAPACK calls.
import pzid  # noqa: F401
