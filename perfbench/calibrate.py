"""Machine-speed references for the benchmark's time metrics.

The benchmark runs on shared virtual machines whose vCPUs change speed, each
on its own: the same work can take up to twice as long for stretches of
seconds to minutes, and a whole run can fall into a slow stretch.  Averaging
over a run cannot remove that.  So every time is reported at a fixed
reference speed: the time as measured, times a speed factor taken from a
fixed piece of reference work timed right next to it, on the same vCPU.

In-process jobs are timed by ``Meter.measure``, which samples the speed
while the job runs: a timer signal interrupts the job every ``PERIOD_S``
seconds and times one call of ``reference_loop``, pure-Python work of the
same kind as fanocount's (``Fraction`` and big-integer arithmetic) but
independent of it.  One more call is timed just before the job and one just
after, so that a job shorter than the period is still bracketed.  The job's
own time is its time minus the reference calls inside it, and its speed
factor is ``REF_S`` over the mean reference call (``speed``).

Processes, that is the CLI jobs and the set-up probes, follow the speed of
a process start more closely than that of ``reference_loop``.  Their
reference is a bare interpreter, ``python -c pass``, timed just before and
just after each of them; the factor is ``SPAWN_REF_S`` over the median of
the four probes around it (``spawn_speed``).

The times as measured are kept next to the reported ones in the run's
record.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

# Time of one reference_loop call on a 2-vCPU Intel Xeon VM with Python
# 3.11, in the machine's fast stretches.  Only a unit: changing it rescales
# every normalised time by the same factor.
REF_S = 0.0012

# Time of a bare interpreter start, ``python -c pass``, on the same
# machine in its fast stretches: the reference speed of process times.
SPAWN_REF_S = 0.06

# Interval of the timer signal; one reference call costs about 6% of it.
PERIOD_S = 0.02

_W = [Fraction(x) for x in (3, -7, 11, 2, 5, -13, 17, 23)]


def reference_loop() -> Fraction:
    """A sum of rational terms over pairs of torus weights, the shape of a
    fixed-point sum, about a millisecond long."""
    total = Fraction(0)
    for i in range(6):
        for j in range(6):
            if i == j:
                continue
            euler = 1
            for k in range(8):
                if k != i and k != j:
                    euler *= (_W[k] - _W[i]) * (_W[k] + _W[j])
            total += (_W[i] * _W[j]) ** 3 / euler
    return total


@dataclass
class Measurement:
    value: object
    wall_s: float   # the job alone: the reference calls inside it taken out
    cpu_s: float
    ref_s: float    # mean time of one reference call, from just before to just after the job


class Meter:
    def __init__(self) -> None:
        self._samples: list[tuple[float, float, float]] = []   # start, wall, cpu
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        self._samples.append(self._reference())

    @staticmethod
    def _reference() -> tuple[float, float, float]:
        # the collector stays off, so that the size of the job's heap does
        # not enter the reference time
        enabled = gc.isenabled()
        gc.disable()
        t0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        t1, c1 = time.perf_counter(), time.process_time()
        if enabled:
            gc.enable()
        return t0, t1 - t0, c1 - c0

    def measure(self, fn) -> Measurement:
        """Call ``fn()`` with the timer running; see the module docstring."""
        self._samples = [self._reference()]
        t0, c0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1, c1 = time.perf_counter(), time.process_time()
        # a signal that arrived just before the timer stopped may be handled
        # after t1: only the calls that started inside [t0, t1] are the job's
        inside = [s for s in self._samples[1:] if t0 <= s[0] < t1]
        self._samples.append(self._reference())
        return Measurement(value,
                           t1 - t0 - sum(wall for _, wall, _ in inside),
                           c1 - c0 - sum(cpu for _, _, cpu in inside),
                           statistics.fmean(wall for _, wall, _ in self._samples))


def speed(ref_s: float) -> float:
    """The factor that brings an in-process job's time to the reference
    speed, from the mean reference call around it."""
    return REF_S / ref_s


def spawn_speed(interpreter_s: list[float], after: int) -> float:
    """The factor that brings a process's time to the reference speed.
    ``interpreter_s`` are the bare interpreter probes of a pass, and the
    process ran between probes ``after`` and ``after + 1``.  The factor
    rests on the median of the four probes around it, two on either side,
    so that a single stray probe does not move it."""
    return SPAWN_REF_S / statistics.median(interpreter_s[max(0, after - 1):after + 3])
