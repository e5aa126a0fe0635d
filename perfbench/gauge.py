"""Machine-speed gauge: job times scaled to a reference speed.

On a shared host the speed one process gets drifts by tens of percent over
seconds to minutes.  On the 2-core host this benchmark was tuned on, a
pure-Python loop took 16 ms in one minute and 25 ms in the next, and
identical pzid jobs slowed by the same factor, in wall time and CPU time
alike.  Ten runs spread over a few minutes then differ more than any bound
worth having.

So before every job, and once after the last, the benchmark times a fixed
kernel that does not touch pzid, outside the job clock.  It is a mix like
pzid's own: a Python loop, small dense solves and a complex least-squares
solve.  A job's time is multiplied by ``REF_S`` over the mean of the two
kernel times that bracket it.  Over six 30 s proviso runs on six seeds,
this cut the spread (IQR over median) of p50 from 11 % raw to 1.8 % and
of p90 from 9 % to 1.7 %.  The raw times are reported beside the scaled
ones.
"""

import statistics
import time

import numpy as np

REF_S = 5.0e-3  # the kernel's time at the reference speed


class Gauge:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        self._ones = np.ones(4)
        self._tall = rng.standard_normal((800, 24)) + 1j * rng.standard_normal((800, 24))
        self._rhs = rng.standard_normal(800) + 0j

    def sample(self):
        """Seconds the kernel takes now."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(150):
            np.linalg.solve(self._small, self._ones)
        for _ in range(4):
            np.linalg.lstsq(self._tall, self._rhs, rcond=None)
        return time.perf_counter() - t0


def scale(times, samples):
    """Each time scaled by REF_S over the mean of the kernel samples taken
    just before and just after it: ``samples[i]`` and ``samples[i + 1]``."""
    if len(samples) != len(times) + 1:
        raise ValueError("need one gauge sample before each job and one after the last")
    return [t * REF_S / statistics.fmean(samples[i:i + 2]) for i, t in enumerate(times)]
