"""Host-speed probe: samples how fast this CPU runs Python code while an op runs.

On a shared host the speed of pure-Python code drifts by up to 2x over
seconds to minutes, so raw op times spread more between runs than any
bound a timing gate can use.  The probe times a fixed ``Fraction`` loop
(the same kind of arithmetic as ``EisensteinNumber``) from a ``SIGALRM``
handler every ``PERIOD_S`` while an op runs, plus once just before and once
just after it.  The handler runs in the op's own thread between bytecodes,
so the samples see the host at the same moments and on the same CPU as the
op.  ``adjust`` scales an op's time to a host on which one probe takes
``REFERENCE_S``: ``seconds * REFERENCE_S / mean(samples)``.  The time the
probes themselves take inside the op is subtracted first.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
STEPS = 150  # loop length of one probe, about 1 to 2 ms of work
REFERENCE_S = 1e-3  # probe time of the reference host that adjusted times are scaled to


def probe_work() -> Fraction:
    """The fixed unit of work one probe times."""
    x = Fraction(1)
    for i in range(1, STEPS):
        x = (x * 3 + Fraction(1, i)) / (2 + x) if i % 7 else Fraction(1)
    return x


def adjust(seconds: float, samples: list[float]) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * REFERENCE_S / statistics.fmean(samples)


class Probe:
    """Samples probe times around and during one timed region.

    Use as a context manager around the region; ``samples`` holds every
    probe time, and ``inside(start, end)`` the total probe time that fell
    between two ``perf_counter`` readings taken in the region.
    """

    def __init__(self) -> None:
        self.stamps: list[tuple[float, float]] = []  # (start, duration) per probe

    @property
    def samples(self) -> list[float]:
        return [duration for _, duration in self.stamps]

    def sample(self, *_signal_args) -> None:
        start = perf_counter()
        probe_work()
        self.stamps.append((start, perf_counter() - start))

    def inside(self, start: float, end: float) -> float:
        return sum(duration for at, duration in self.stamps if start <= at < end)

    def __enter__(self) -> "Probe":
        self.stamps = []
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
