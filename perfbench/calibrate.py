"""Fixed reference work that measures how fast the CPU runs right now.

The shared host the benchmark runs on changes speed by up to 1.75x, both
from second to second and in regimes that last minutes and move whole runs;
medians within a run cannot remove the second kind.  So every end-to-end
time the benchmark reports is scaled to a reference speed by timing this
work in the same process and over the same interval:

- `Probe` runs `probe()` from a SIGALRM handler every PROBE_PERIOD_S of wall
  time while a timed CLI call runs.  The call's wall time, less the probes'
  own, is scaled by PROBE_REF_S over the probes' mean wall time; its CPU
  time, less the probes' own, by PROBE_REF_S over their mean CPU time.
- A set-up-only launch runs `calibrate()` right after its import; its set-up
  time is scaled by CAL_REF_S over the calibration's time.

A scaled time reads as the time the work would have taken on the reference
machine at its usual speed.  The reference work imitates the three kinds of
code the package runs: tuple/dict/set operations on small integers (the lcm
lattice and the complexes), Fraction arithmetic (exact ranks and fits) and
numpy operations on short complex vectors (the root finder).  It imports
nothing from the package, so a change to the package cannot change it, and
it allocates little.
"""
from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

PROBE_PERIOD_S = 0.04
# Usual times on the reference machine (2-vCPU Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6): the mean probe() inside a timed call, and one calibrate().
# They only set the scale of the scaled times.
PROBE_REF_S = 0.0015
CAL_REF_S = 0.145
CAL_PROBES = 120


def _lattice_like(n: int) -> int:
    joins: dict[tuple[int, int, int], int] = {}
    for i in range(n):
        key = (i % 31, (i * 7) % 29, (i * 13) % 23)
        joins[key] = max(joins.get(key, 0), i)
    seen = set()
    for a, b, c in joins:
        seen.add((max(a, b), max(b, c)))
    return len(seen)


def _fraction_like(n: int) -> Fraction:
    total = Fraction(0)
    for i in range(1, n):
        total = (total + Fraction(i % 13 + 1, i % 17 + 1)) * Fraction(3, 4)
    return total


def _roots_like(n: int) -> complex:
    z = np.exp(2j * np.pi * np.arange(20) / 20) * 1.3
    coeffs = np.arange(1, 22, dtype=float)
    for _ in range(n):
        p = np.polyval(coeffs, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        repulse = (1.0 / diff).sum(axis=1)
        z = z - 1e-9 * p / (1.0 + repulse)
    return complex(z.sum())


def probe() -> None:
    """About 1 ms of the three kinds of work."""
    _lattice_like(300)
    _fraction_like(40)
    _roots_like(3)


def calibrate() -> float:
    """Seconds that CAL_PROBES probes in a row take now."""
    start = time.perf_counter()
    for _ in range(CAL_PROBES):
        probe()
    return time.perf_counter() - start


class Probe:
    """Times probe() every PROBE_PERIOD_S of wall time between start and stop.

    Each probe is timed twice: in wall time, and in the CPU time of the
    thread, which leaves out any time the host kept the process off the CPU.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (wall, CPU) seconds
        self.inside = (0.0, 0.0)  # probe time between start and stop
        probe()  # the first calls into Fraction and numpy are slower

    def _tick(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        probe()
        self.samples.append((time.perf_counter() - wall, time.thread_time() - cpu))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.inside = self.total()
        if not self.samples:  # a call shorter than one period
            self._tick()

    def total(self) -> tuple[float, float]:
        return tuple(map(sum, zip(*self.samples))) if self.samples else (0.0, 0.0)

    def mean(self) -> tuple[float, float]:
        wall, cpu = self.total()
        return wall / len(self.samples), cpu / len(self.samples)
