"""A fixed calibration kernel that tells how fast the machine is right now.

On a machine whose cores are shared with other tenants, the same code runs
up to twice as slow for minutes at a time.  The benchmark runs this kernel
between commands and scales its timings by how much slower than nominal the
kernel ran, so that a slow spell of the machine does not read as a slow
program.  The kernel does the program's kinds of work, exact ``Fraction``
matrix products and small float SVDs and eigenvalues, but uses nothing of
periodlab, so no change to the program changes its time.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

import numpy

# The kernel's typical time on the machine the benchmark was tuned on (2-vCPU
# Intel Xeon virtual machine, Python 3.11.7, numpy 2.4.6 on OpenBLAS with one
# thread).  Scaled timings are seconds at that machine's usual speed.
NOMINAL_S = 0.005
# kernel runs per calibration, about 40 ms: long enough to average over the
# machine's short stalls, as the commands it is compared with do
TRIES = 10


def kernel() -> None:
    n = 6
    a = [[Fraction(i * n + j + 1, (i + 2 * j) % 5 + 1) for j in range(n)]
         for i in range(n)]
    m = a
    for _ in range(4):
        m = [[sum(m[i][k] * a[k][j] for k in range(n)) % 97 for j in range(n)]
             for i in range(n)]
    rng = numpy.random.default_rng(0)
    for _ in range(30):
        x = rng.standard_normal((8, 8))
        numpy.linalg.svd(x)
        numpy.linalg.eigvals(x + x.T)


def calibrate() -> float:
    """Mean time of ``TRIES`` kernel runs, with the garbage collector off so
    that the size of the program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        for _ in range(TRIES):
            kernel()
        return (perf_counter() - start) / TRIES
    finally:
        if enabled:
            gc.enable()
