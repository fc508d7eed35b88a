"""Machine-speed calibration of the timed pass.

On the reference machine, a 2-vCPU virtual machine at 2.1 GHz, co-tenants
slow every operation by 20-50% for stretches of seconds to minutes, so a
run's raw median moves by 5-20% from run to run with no
change to the program.  A fixed probe that never touches the program
(numpy and Python work of the same grain as the engine's round:
elementwise passes, a segmented reduction, a sort, a histogram and a small
Python loop) slows down with the machine: over 12-second windows of the
``torus32-excess`` calls the calibrated median moved by 4% where the raw
one moved by 11% (see ``README.md`` for every workload).

Each timed interval is therefore also reported in *reference
milliseconds*: its raw duration times ``PROBE_REF_MS`` over the probe's
duration measured around it.  ``PROBE_REF_MS`` is the probe's median on
the reference machine (2 vCPUs at 2.1 GHz, numpy 2.4), so on a quiet
reference machine the two readings agree.  The probe does not depend on
the program, so a change that slows the program still shows in full.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from stats import median

#: The probe's median duration on the reference machine.
PROBE_REF_MS = 3.6
#: Probes around interval ``i`` whose median calibrates it: ``i - 2 .. i + 2``.
WINDOW = 2


class Probe:
    """A fixed amount of numpy and Python work, independent of the program."""

    def __init__(self):
        rng = np.random.default_rng(20150701)
        self.plane = rng.random((2048, 16))
        self.starts = np.arange(0, self.plane.size, 64)
        self.keys = rng.integers(0, 2048, size=20000)

    def _work(self) -> float:
        acc = 0.0
        for _ in range(40):
            x = np.floor(self.plane * 7.3)
            y = np.sort(np.add.reduceat(x.ravel(), self.starts))
            w = np.bincount(self.keys, minlength=2048)
            acc += float(y[0] + w[0])
            for j in range(50):
                acc += j * 0.5
        return acc

    def ms(self) -> float:
        t0 = time.perf_counter()
        self._work()
        return (time.perf_counter() - t0) * 1e3


def factors(probe_ms: List[float]) -> List[float]:
    """Per interval, ``PROBE_REF_MS`` over the median of the probes around
    it (the probe taken just before interval ``i`` is ``probe_ms[i]``)."""
    n = len(probe_ms)
    return [
        PROBE_REF_MS / median(probe_ms[max(0, i - WINDOW) : min(n, i + WINDOW + 1)])
        for i in range(n)
    ]
