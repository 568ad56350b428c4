"""The reference loop that scales a run's times to one machine speed.

The vCPUs of a shared host change speed by up to 40% in phases that last
5-50 s, and the mix of phases drifts over tens of minutes, so raw wall times
of identical runs differ by 15-30%.  A run times this loop, which uses nothing
from the package, after every study and reports its times multiplied by
``NOMINAL_S / mean loop time``.  A change to the package moves the scaled
times in proportion to its wall time; it cannot move the loop.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

#: the loop's time at the reference speed; about its median on a 2-vCPU KVM
#: guest of an Intel Xeon host, where the loop takes 2.4-3.9 ms
NOMINAL_S = 0.003

_WIDE = np.linspace(0.0, 1.0, 4096)
_NARROW = _WIDE[:2].copy()


def reference_s(rounds: int = 5) -> float:
    """Median wall time of the loop over ``rounds`` runs.

    Its three parts, about 1 ms each, match the cost profiles of the
    workloads: interpreted Python, numpy calls on 2 lanes (dispatch bound),
    and numpy calls on 4096 lanes (streaming).
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(15000):
            acc += i * 0.5
        for _ in range(700):
            _NARROW * 1.0001 + acc
        for _ in range(200):
            _WIDE * 1.0001 + acc
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
