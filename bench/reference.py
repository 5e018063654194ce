"""A fixed reference kernel, timed between the program's calls.

The machine the benchmark runs on is shared: how fast it runs the same
code drifts, by up to half, from one minute to the next.  The kernel below
is a fixed mix of the kinds of work lagflow does (interpreter loops, small
numpy calls, 64 x 64 Hermitian eigenvalues, a short Nelder-Mead run) that
no change to lagflow can touch.  After each program call it runs once per
``EVERY_S`` seconds of program time, so its samples see the machine in the
same moments and in the same proportion as the calls do; the ratio of the
program's mean round time to the kernel's mean time cancels the drift.
Times are reported as that ratio times the kernel's time on the reference
machine, ``NOMINAL_S``: seconds on that machine at its usual speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize

EVERY_S = 0.1    # seconds of program calls per kernel sample
TRIM = 0.1       # share of samples dropped at each end before averaging
# the kernel's mean time between program calls on the reference machine of
# bench/README.md: times divided by the kernel's and multiplied by this read
# as seconds on that machine at its usual speed
NOMINAL_S = 0.009

_RNG = np.random.default_rng(20240601)
_A = _RNG.normal(size=(64, 64)) + 1j * _RNG.normal(size=(64, 64))
_H64 = _A + _A.conj().T
_H3 = _H64[:3, :3].copy()
_M2 = _H64[:2, :2].copy()
_EYE2 = np.eye(2)


def _objective(x) -> float:
    m = _M2 * x[0] + _EYE2 * x[1] + x[2]
    return float(np.linalg.svd(m, compute_uv=False)[-1] ** 2
                 + (x[0] - 0.3) ** 2 + (x[2] + 0.1) ** 2)


def kernel() -> float:
    acc = 0
    table = {}
    for i in range(10000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for _ in range(50):
        acc += float(np.linalg.eigvalsh(_H3)[0])
    for _ in range(8):
        acc += float(np.linalg.eigvalsh(_H64)[0])
    res = minimize(_objective, np.array([0.5, 0.2, 0.1]), method="Nelder-Mead",
                   options={"maxfev": 60, "xatol": 1e-12, "fatol": 1e-14})
    return acc + float(res.fun)


def _timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Reference:
    """Kernel samples taken between program calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._busy = 0.0

    def after_call(self, seconds: float):
        """Count a program call; one kernel sample per EVERY_S seconds of calls."""
        self._busy += seconds
        if self._busy < EVERY_S:
            return
        # warm-up: a CLI child process evicts the benchmark's code and data
        # from the caches, and the first kernel call after it runs slow
        kernel()
        while self._busy >= EVERY_S:
            self._busy -= EVERY_S
            self.samples.append(_timed_kernel())

    def mean_s(self) -> float:
        """Mean sample time with the TRIM share cut at each end."""
        if not self.samples:  # fewer than EVERY_S seconds of calls
            self.after_call(EVERY_S)
        ordered = sorted(self.samples)
        cut = int(TRIM * len(ordered))
        return statistics.fmean(ordered[cut:len(ordered) - cut])

    def in_reference_s(self, seconds: float) -> float:
        """``seconds`` measured alongside the samples, in reference-machine seconds."""
        return seconds * NOMINAL_S / self.mean_s()
