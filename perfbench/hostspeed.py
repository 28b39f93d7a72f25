"""Host-speed reference for the benchmark's timings.

The benchmark's host shares its cores with other work, and its speed drifts
by up to ~1.5x over seconds to minutes while the library's cost stays the
same.  `kernel()` is a fixed piece of work that uses no treefield code --
Fraction arithmetic, tuple and dict churn and small numpy products, the mix
the library spends its time on -- so a change to the library cannot change
its time.  The benchmark times it next to the ops and scales each stretch of
op times by `KERNEL_REF_S / kernel time`: the op times then read as on a
host where the kernel takes `KERNEL_REF_S`.  Raw times go into the record.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# the kernel's median time on the 2-core x86_64 host the bounds were set on
KERNEL_REF_S = 0.004
KERNEL_REPEATS = 3


def kernel():
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 1 << (i % 17)) * Fraction(3, 2 * i + 1)
    nest: tuple = ()
    for i in range(2000):
        nest = (nest, i) if i % 3 else ((i,),)
    table = {}
    for i in range(2000):
        table[(i, i & 7)] = (i * 31) % 97
    a = np.arange(81.0).reshape(9, 9) / 81
    for _ in range(150):
        a = a @ a.T / (1.0 + np.abs(a).max())
    return acc, table, a


def speed_factor() -> float:
    """KERNEL_REF_S over the median of a few kernel runs, timed now."""
    times = []
    for _ in range(KERNEL_REPEATS):
        t0 = time.perf_counter_ns()
        kernel()
        times.append(time.perf_counter_ns() - t0)
    return KERNEL_REF_S * 1e9 / statistics.median(times)
