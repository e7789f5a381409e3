"""Host-speed reference: a fixed kernel, timed between operations.

On a shared host the speed of a core drifts by 10-30% over tens of
seconds, which is more than the bounds this benchmark gates on. So every
time it reports is scaled by NOMINAL_MS / (time of this kernel, run just
before the measurement; mean of the latest few runs): it is the time the
operation would take on a host where the kernel takes NOMINAL_MS. The
kernel mixes what the workloads spend their time on (interpreter-bound
calls on tiny arrays, dictionary updates, small FFTs) and uses numpy only,
so no change to ffast2d can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_MS = 30.0     # the kernel's typical time on the baseline host
EVERY_S = 0.25        # at most one kernel run per this much wall time
WINDOW = 5            # the scale uses the mean of this many latest runs

_SHIFTS = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.float64)


def kernel_seconds() -> float:
    stack = np.zeros((3, 56, 56), dtype=np.complex128)
    seen = {}
    start = time.perf_counter()
    for i in range(2000):
        w = np.exp(2j * np.pi * (i * _SHIFTS[:, 0] / 280
                                 + (i % 7) * _SHIFTS[:, 1] / 280))
        stack[:, i % 56, (i * 7) % 56] -= w
        seen[(i, i % 7)] = complex(w[0])
        if i % 100 == 0:
            np.fft.fft2(stack)
    return time.perf_counter() - start


class HostSpeed:
    """Kernel times gathered through a run, and the scale they imply."""

    def __init__(self):
        self.samples: list[float] = []
        self._due = 0.0

    def prime(self) -> None:
        """Fills the window, so that the first scale is as steady as the rest."""
        for _ in range(WINDOW):
            self.samples.append(kernel_seconds())
        self._due = time.perf_counter() + EVERY_S

    def scale(self) -> float:
        """Factor for the time measured next: NOMINAL_MS / recent kernel time.

        Runs the kernel first when EVERY_S has passed since its last run, so
        an operation of 0.25 s or more always has a kernel run just before
        it. One kernel run is noisy. The mean of the latest WINDOW runs is
        steadier and still follows a drift that lasts seconds. It is a mean,
        not a median, because an operation also lives through the host's
        slow and fast moments in proportion: on robust-280, medians left
        twice the spread.
        """
        if time.perf_counter() >= self._due:
            self.samples.append(kernel_seconds())
            self._due = time.perf_counter() + EVERY_S
        recent = statistics.fmean(self.samples[-WINDOW:])
        return NOMINAL_MS / (recent * 1e3)

    def summary(self) -> dict:
        return {"kernel_ms.p50": statistics.median(self.samples) * 1e3,
                "kernel_runs": len(self.samples), "nominal_ms": NOMINAL_MS}
