"""Host-speed reference, timed next to every timed operation.

The shared 2-core hosts this benchmark was tuned on change speed by up to
2x, in spells that last from seconds to minutes, so raw wall times of the
same code spread by ~50% (interquartile range over the median) between
runs. Each timed operation is therefore bracketed by a fixed reference
kernel, and its time is reported on a nominal host on which the kernel
takes ``NOMINAL_S``: ``elapsed * NOMINAL_S / (mean of the two kernel
times)``. A run reports the median of these over its samples.

The kernel mixes what netmix spends its time on: a Python loop over small
numpy arrays (per-call overhead, the bulk of a small-shape sweep and of
post-fit), small Cholesky factorizations and ``log_ndtr``. On eight 20 s
runs of the acceptance shape the bracketed ratio cut the spread of the
fit, test report and classify times from 46-58% to ~7%; a kernel of BLAS
products and integer adds alone tracked the Python-heavy slowdowns only
half-way (10-18%). The kernel never calls netmix, so a change to netmix
cannot move it.

The kernel in the parent does not track work done in child processes
(the ``cli`` stages, mostly interpreter start-up and imports): over seven
V=68 pipeline repetitions, stage times divided by it spread more (15-50%)
than the raw times did (15-30%). For those, the reference is this file
run as a script, which starts Python, imports the numpy and scipy modules
netmix imports and runs the kernel ``CHILD_KERNELS`` times; a repetition
of the pipeline is scaled by the mean of the references taken before and
after it, to a host on which that script takes ``NOMINAL_CHILD_S``. That
brought the spread of the pipeline time over the same repetitions to 8%.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np
from scipy.special import log_ndtr

__all__ = ["NOMINAL_S", "NOMINAL_CHILD_S", "HostSpeed"]

NOMINAL_S = 0.010
NOMINAL_CHILD_S = 0.8
CHILD_KERNELS = 5
# a reference taken less than this long before an operation starts is
# reused as that operation's "before" reference
_REUSE_S = 0.05


class HostSpeed:
    """Times the reference kernel around operations and scales their times."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._spd = [q @ q.T + 10.0 * np.eye(10)
                     for q in rng.standard_normal((100, 10, 10))]
        self._z = rng.standard_normal(20_000)
        self.samples: list[float] = []
        self.child_samples: list[float] = []
        self._last_end = -np.inf

    def _kernel(self) -> float:
        total, seen = 0.0, {}
        for i in range(3000):
            a = np.arange(5.0) * i
            total += float(a.sum())
            seen[i % 7] = total
        for m in self._spd:
            np.linalg.cholesky(m)
        return total + float(log_ndtr(self._z).sum())

    def reference(self) -> float:
        """Time the kernel once; return its wall seconds."""
        t0 = time.perf_counter()
        self._kernel()
        self._last_end = time.perf_counter()
        self.samples.append(self._last_end - t0)
        return self.samples[-1]

    def timed(self, fn, *args):
        """Call ``fn(*args)`` between two references; return its result,
        its wall seconds and those seconds on the nominal host."""
        if time.perf_counter() - self._last_end < _REUSE_S:
            before = self.samples[-1]
        else:
            before = self.reference()
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        after = self.reference()
        return out, elapsed, elapsed * 2.0 * NOMINAL_S / (before + after)

    def child_reference(self) -> float:
        """Run this file as a script once; return its wall seconds."""
        t0 = time.perf_counter()
        subprocess.run([sys.executable, __file__], check=True, timeout=120)
        self.child_samples.append(time.perf_counter() - t0)
        return self.child_samples[-1]

    def reference_s(self) -> float:
        return statistics.median(self.samples)

    def scale(self) -> float:
        """Factor that maps times measured here to the nominal host."""
        return NOMINAL_S / self.reference_s()


if __name__ == "__main__":
    import scipy.linalg  # noqa: F401  (netmix imports it too)
    host = HostSpeed()
    for _ in range(CHILD_KERNELS):
        host._kernel()
