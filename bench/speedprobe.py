"""Speed probe: how fast the benchmark's CPU runs while a timed process runs on it.

On a shared host the same CPU runs the same code at speeds up to about 1.7x
apart, in phases of seconds that drift over tens of minutes, so wall times
of identical runs spread past any useful bound.  The benchmark pins itself
and its children to one CPU.  While a child runs, this probe's thread wakes
every INTERVAL_S on that CPU and times a fixed burst of numpy work: small
steps shaped like the program's own iteration (an 85 x 85 matrix-vector
product, a mean, a max and a min), and products with a 300 x 300 matrix,
each part the faster of two tries.  The mean burst time over the child's
life says how slow the CPU was for the child too, and ``scaled`` converts the
child's wall time to seconds at the reference speed, where a burst takes
REFERENCE_BURST_S.

A slower phase does not slow all code alike: on a 2-vCPU Xeon VM, in log
terms, the interpreter-bound commands slowed up to 1.2 times as much as this
burst and the BLAS-bound ones 0.8 times as much.  So scaling removes most of
a phase's effect, not all of it; the burst's mix keeps both gaps small.

The probe runs no consensim code, so a change to the program moves the
scaled time by the same factor as the wall time.  Its bursts take under 2%
of the CPU, the same share in every run.
"""

from __future__ import annotations

import threading
from time import perf_counter

import numpy as np

INTERVAL_S = 0.05
SMALL_STEPS = 16
SMALL = np.random.default_rng(0).standard_normal((85, 85)) / 85
MEDIUM_PRODUCTS = 8
MEDIUM = np.random.default_rng(1).standard_normal((300, 300))
# about a burst's time on a 2-vCPU Xeon VM in its faster phase; only sets the scale
REFERENCE_BURST_S = 300e-6


def small_steps() -> None:
    x = np.ones(len(SMALL))
    for _ in range(SMALL_STEPS):
        y = SMALL @ x
        x = y - y.mean()
        float(x.max()) - float(x.min())


def medium_products() -> None:
    x = np.ones(len(MEDIUM))
    for _ in range(MEDIUM_PRODUCTS):
        MEDIUM @ x


def fastest_of_two(work) -> float:
    times = []
    for _ in range(2):
        t0 = perf_counter()
        work()
        times.append(perf_counter() - t0)
    return min(times)


def burst() -> float:
    """Time of one burst; the faster of two tries of each part filters out preemption."""
    return fastest_of_two(small_steps) + fastest_of_two(medium_products)


class SpeedProbe:
    """Context manager: time bursts on this process's CPU until exit."""

    def __init__(self) -> None:
        self.bursts: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.bursts.append(burst())

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.bursts:
            self.bursts.append(burst())

    @property
    def mean_burst_s(self) -> float:
        return sum(self.bursts) / len(self.bursts)

    def scaled(self, wall_s: float) -> float:
        """Wall time at the reference speed."""
        return wall_s * REFERENCE_BURST_S / self.mean_burst_s
