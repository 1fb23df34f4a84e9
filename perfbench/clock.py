"""Host time, scaled to a reference host speed.

The machines this benchmark runs on share their cores with other work, and
the speed they give one process drifts by tens of percent within minutes.
Two runs of the same code minutes apart would then differ by more than any
bound worth setting. So while a job runs, a timer signal interrupts it
every SAMPLE_EVERY_S and times a fixed reference computation: the
simulator's own mix of interpreter work and SHA-256 of short inputs,
allocating nothing the garbage collector tracks. The reference's own time
is taken out of the segment it interrupted, and each segment is scaled by
how fast the reference ran around it:

    reported = raw host seconds * REFERENCE_NOMINAL_S / mean reference seconds

The reported figure is what the segment would take on a host where the
reference takes REFERENCE_NOMINAL_S, about what it took on the machine the
benchmark was written on. A change to the simulator cannot move the
reference; a change of host speed moves both alike.
"""

from __future__ import annotations

import hashlib
import signal
from array import array
from time import perf_counter

REFERENCE_NOMINAL_S = 0.001
REFERENCE_ROUNDS = 700
SAMPLE_EVERY_S = 0.05


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b

    def at(self, x: int) -> int:
        return self.a * x + self.b


_POINTS = [_Point(i, 0) for i in range(64)]


def reference_s() -> float:
    """Host seconds of one run of the reference computation: method calls,
    attribute and dict stores and SHA-256 of short inputs. It reuses its
    objects, so its time does not depend on the size of the heap, and its
    data is small enough that the job around it barely changes its speed."""
    sha256 = hashlib.sha256
    points = _POINTS
    table = {}
    acc = 0
    t0 = perf_counter()
    for i in range(REFERENCE_ROUNDS):
        point = points[i & 63]
        point.b = i & 7
        acc += point.at(3)
        table[i & 31] = sha256(i.to_bytes(8, "big")).digest()
    return perf_counter() - t0


class Clock:
    """Times segments of one job. `stop(start(), step=True)` records a step
    for the percentiles; `step=False` records work that counts towards the
    job's time only. `finish` stops sampling and returns the steps and the
    job's total, both in scaled seconds."""

    def __init__(self):
        self._samples: list[tuple[float, float]] = []  # (start, seconds)
        # segments, in time order: start, end, is-a-step
        self._t0 = array("d")
        self._t1 = array("d")
        self._step = bytearray()
        self.raw_s = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _sample(self) -> None:
        start = perf_counter()
        self._samples.append((start, reference_s()))

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    @staticmethod
    def start() -> float:
        return perf_counter()

    def stop(self, t0: float, step: bool = True) -> None:
        self._t1.append(perf_counter())
        self._t0.append(t0)
        self._step.append(step)

    def finish(self) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        samples = self._samples
        # One pass over segments and samples, both in time order. A sample
        # that started inside a segment interrupted it: its time comes out.
        # The samples that started within SAMPLE_EVERY_S of a segment (at
        # least one) give the reference speed it is scaled by.
        inside = lo = hi = 0
        window = 0.0  # reference seconds of samples[lo:hi]
        steps, job = [], 0.0
        for t0, t1, step in zip(self._t0, self._t1, self._step):
            while lo < len(samples) - 1 and samples[lo][0] < t0 - SAMPLE_EVERY_S:
                if lo < hi:
                    window -= samples[lo][1]
                lo += 1
            hi = max(hi, lo)
            if hi == lo:
                window = 0.0
            while hi < len(samples) and (hi == lo or samples[hi][0] <= t1 + SAMPLE_EVERY_S):
                window += samples[hi][1]
                hi += 1
            inside = max(inside, lo)
            while inside < len(samples) and samples[inside][0] < t0:
                inside += 1
            raw = t1 - t0
            while inside < len(samples) and samples[inside][0] < t1:
                raw -= samples[inside][1]
                inside += 1
            scaled = raw * REFERENCE_NOMINAL_S * (hi - lo) / window
            self.raw_s += raw
            job += scaled
            if step:
                steps.append(scaled)
        return steps, job
