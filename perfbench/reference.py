"""A fixed reference workload that measures how fast the machine is now.

The benchmark runs on shared machines whose speed drifts by tens of percent
over seconds to minutes: a whole 30-second run can land in a fast or a slow
spell, so the median of raw request times moves with the neighbours, not
with the code. The reference kernel is a constant amount of work of the same
kind as cellform's (small-tuple building, set and sort in pure Python, plus a
NumPy sort), independent of cellform. It runs between requests; a request's
time divided by the mean duration of the kernel runs just before and after it
is its cost in reference units, which cancels the machine's current speed.
"""

from __future__ import annotations

import random
import time

import numpy as np

_ROWS = 3000
_ARRAY = np.arange(20000) % 97


def reference_kernel() -> int:
    """Do the fixed work once and return a checksum of it."""
    rng = random.Random(0)
    total = 0
    for _ in range(_ROWS):
        row = tuple(rng.randrange(1 << 40) for _ in range(8))
        total += len(sorted(set(row), reverse=True))
    return total + int(np.sort(_ARRAY).sum())


def time_reference() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
