"""A fixed reference workload that measures how fast the machine runs now.

On a shared machine the same backtest round takes from 1.5 s to 3 s,
depending on what else runs: phases that last from seconds to minutes, in
CPU time as much as in wall time. The reference does a fixed mix of the
kinds of work `qens` does (interpreted loops, dict updates, small numpy
sorts and products) without using `qens`, so its time moves with the
machine and not with the program. Times scaled by `REFERENCE_S / ref` read as
seconds on a machine that runs the reference in `REFERENCE_S`.
"""

import time

import numpy as np

# About the median reference time on the 2-core x86-64 container where the
# README's figures were taken, so that scaled times read close to its seconds.
REFERENCE_S = 0.12
_ARRAYS = [np.random.default_rng(0).random(23) for _ in range(200)]


def reference_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i % 7
    counts: dict = {}
    for i in range(120_000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(60):
        for a in _ARRAYS:
            np.cumsum(np.sort(a)) @ a
    return time.perf_counter() - start
