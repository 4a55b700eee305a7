"""Host normalisation: one deterministic kernel and the clock built on it.

Two things move a timing on this 2-core shared host that are not the
engine.  The hypervisor takes the cores away (steal reached 70 % for
minutes while this file was written: a fixed 12 s run took 145 s), and even
while running, the cores' speed wanders by about a quarter.  Raw wall-clock
therefore cannot separate a 5 % regression from the weather.

* Every timed interval is measured in *process CPU time*: steal and
  preemption do not count, everything the engine's threads execute does.
  The engine runs serial, in memory and without I/O in the timed phases, so
  on a quiet host CPU time and wall time agree; the wall-clock twins are
  printed as ``raw.*``.
* Every timed *block* of engine work is bracketed by samples of
  :func:`kernel`, also in CPU time; an operation's reported time is

      cpu * CAL_REF_MS / mean(samples around its block)

  i.e. what it would have taken on a host where the kernel takes exactly
  ``CAL_REF_MS``.  The kernel mixes interpreter work (building, hashing
  and looking up strings) with NumPy work (gather + grouped sum) because the
  engine is both.
"""

from __future__ import annotations

import bisect
import time
from typing import List

import numpy as np

#: The reference host: the kernel takes this long on it.
CAL_REF_MS = 5.0

#: Samples this close to a timed interval take part in normalising it.
WINDOW_S = 1.0

# Sized on this host so that the two halves weigh about the same and one
# run takes about CAL_REF_MS.  Both halves have the engine's habits, because
# a kernel that lives in the L1 cache slows down less than the engine does
# when a neighbour thrashes the shared caches (measured: 16 % against 25-43 %
# for the engine's transactions and reads).  The first half allocates, hashes
# and looks up strings as dictionary encoding does — but no containers, so it
# never triggers a garbage collection, whose cost would depend on how large
# the database in this process happens to be.  The second gathers a code
# vector through a join-like permutation and sums it by group.
_KEYS = 12_000
_VECTOR = 400_000
_GROUPS = 5_000
_rng = np.random.default_rng(20150323)
_CODES = _rng.integers(0, _GROUPS, _VECTOR)
_ORDER = _rng.permutation(_VECTOR)
_AMOUNTS = _rng.integers(0, 2_000, _VECTOR) * 0.25


def kernel() -> float:
    """The fixed calibration workload (about 5 ms); returns a checksum."""
    names = [str(i) for i in range(_KEYS)]
    codes = dict(zip(names, range(_KEYS)))
    total = 0
    for name in names:
        total += codes[name]
    sums = np.bincount(_CODES[_ORDER], weights=_AMOUNTS, minlength=_GROUPS)
    return float(sums.sum()) + total


def clocked(fn):
    """Run ``fn``; returns its value, its process CPU seconds and its wall
    seconds."""
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    value = fn()
    cpu = time.process_time() - cpu_started
    return value, cpu, time.perf_counter() - wall_started


def sample_ms() -> float:
    """CPU milliseconds per kernel run, over two runs."""
    _value, cpu, _wall = clocked(lambda: (kernel(), kernel()))
    return cpu / 2 * 1e3


class HostClock:
    """Collects timestamped calibration samples and turns wall time into
    reference-host time."""

    def __init__(self) -> None:
        self.samples: List[float] = []  # CPU milliseconds per kernel run
        self.times: List[float] = []  # perf_counter when each was taken

    def calibrate(self) -> None:
        """Take one sample (outside any timed interval)."""
        self.samples.append(sample_ms())
        self.times.append(time.perf_counter())

    def scale(self, start: float, end: float) -> float:
        """Factor turning CPU time spent in ``[start, end]`` (perf_counter
        timestamps) into reference-host time: ``CAL_REF_MS`` over the mean of the samples
        taken within ``WINDOW_S`` of the interval.

        The samples right before ``start`` and right after ``end`` are
        always among them; the neighbouring blocks' samples join because
        one 5 ms sample is itself noisy (host speed also flickers on a
        50-500 ms scale) while the wander being divided out is slower.
        Call it once the samples after ``end`` have been taken.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.samples[lo:hi]
        return CAL_REF_MS / (sum(window) / len(window))

    def bracketed(self, fn):
        """Run ``fn`` between two fresh samples; returns its value, its CPU
        seconds, its wall seconds and the factor to scale the CPU seconds by."""
        self.calibrate()
        started = time.perf_counter()
        value, cpu, wall = clocked(fn)
        self.calibrate()
        return value, cpu, wall, self.scale(started, started + wall)
