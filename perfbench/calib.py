"""Reference kernel that tracks how fast the machine runs during a run.

On a shared virtual machine the same code runs up to twice as fast in
one spell of a few seconds as in the next, so raw wall times differ
from run to run more than any regression worth catching. The benchmark
therefore times this fixed kernel, which uses no keyswap code, right
before every user chain, batch run and set-up probe, and once after
each probe. A timed item is scaled by ``REF_S / k``, where ``k`` is the
mean of the kernel samples just before and just after it: the item is
reported in seconds at the machine speed where the kernel takes
``REF_S``.

The kernel does what keyswap's search loops do: a Python loop of small
NumPy calls (``flatnonzero``, fancy indexing, ``argmin``) over a
325 x 325 table. On a 2-vCPU virtual machine, across six sets of ten
40-second runs made over three hours, the set medians of ``user_s_p50``
moved by 26% in wall seconds and by 5% (cohort) and 9% (sweep) scaled
this way.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel seconds that define the reference speed: about the kernel's
# median on that machine, so reference seconds read close to wall seconds.
REF_S = 0.042
# One sample takes about 40 ms there, short beside the spells of a
# steady speed and beside the chains it is set against.
_REPEATS = 16
_N = 325


class Calibrator:
    """Times the reference kernel on request and keeps every sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20231003)
        self._mask = rng.random((_N, _N)) < 0.7
        self._vals = rng.random(_N)
        self.samples: list[float] = []
        self._kernel()  # first call pays NumPy's lazy set-up, untimed

    def _kernel(self) -> float:
        mask, vals = self._mask, self._vals
        best = 0.0
        for _ in range(_REPEATS):
            for i in range(_N - 1):
                ks = np.flatnonzero(mask[i, i + 1 :])
                if ks.size == 0:
                    continue
                d = vals[ks] + vals[i]
                a = int(np.argmin(d))
                best = min(best, float(d[a]))
        return best

    def sample(self) -> int:
        """Time the kernel once; return the sample's index."""
        t = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t)
        return len(self.samples) - 1

    def median_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self, k: int) -> float:
        """Factor that turns the wall seconds of the item timed right after
        sample k into reference seconds."""
        around = self.samples[k : k + 2]
        return REF_S * len(around) / sum(around)
