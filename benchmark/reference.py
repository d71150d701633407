"""Reference computation that scales timings to the machine's current speed.

The machine's speed drifts by tens of percent over tens of seconds, and
CPU time drifts with wall time. The benchmark therefore runs this fixed
computation between consecutive operations and reports each operation's
time multiplied by R0_S over the median of the two reference times taken
before it and the two taken after it: the time the operation would have
taken on a machine that runs the reference in R0_S seconds. The
computation touches nothing of the program.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Median reference time on the machine where the benchmark was calibrated
# (see README). Fixed, so that scaled times compare across commits.
R0_S = 0.030

_MATRIX = np.random.default_rng(12345).standard_normal((48, 48))
_MATRIX = _MATRIX + _MATRIX.T


def _work() -> float:
    # Interpreter-bound integer work tracks the program's pure-Python
    # operations more closely than dict, object or BLAS work does (slope
    # and residual measured in the README); the eigh is kept small.
    x = 1
    for i in range(250_000):
        x = (x * 31 + i) & 0xFFFF
    total = float(x)
    for _ in range(2):
        total += float(np.linalg.eigh(_MATRIX)[0][0])
    return total


def reference_seconds(runs: int = 1) -> float:
    """Median wall seconds of `runs` back-to-back reference computations."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(refs: list[float], before: int) -> float:
    """Factor turning a raw time into seconds at reference speed.

    refs are reference measurements in the order taken; the timed work ran
    between refs[before] and refs[before + 1]. The factor uses the median
    of the two measurements before and the two after it: fewer let the
    reference's own jitter through, more reach too far from the work.
    """
    return R0_S / statistics.median(refs[max(0, before - 1):before + 3])
