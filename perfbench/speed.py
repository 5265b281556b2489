"""Machine-speed calibration for the timed metrics.

The benchmark runs on small shared machines whose CPU speed changes by a
quarter or more from one second to the next, as neighbours come and go:
a fixed pure-Python loop, timed in 10-second windows over five minutes,
spreads by 0.25 of its median (interquartile range) on a 2-vCPU VM.  That
is as wide as the largest bound a metric may have, so raw wall times
cannot tell a regression from a slow spell.

So an interval timer runs a speed probe every few milliseconds while work
is timed, inside the work as well as between queries: a fixed loop of
benchmark-own code (integer arithmetic, tuples, a dict and function calls,
the kind of work period_lab does) that no change to the library can speed
up or slow down.  The probes' own time is taken out of the sample they
interrupted.  Each measured wall time is then expressed at the reference
speed, the speed at which one probe takes REF_PROBE_S:

    calibrated = wall * REF_PROBE_S / (median of the probes in and around it)

A change to the library moves the calibrated figures by the same share as
the wall times; a slow spell of the machine moves wall times and probes
alike and cancels.  Raw wall figures are kept in each result record.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_PROBE_S = 0.001  # one probe at the reference speed (about a quiet 2-vCPU Xeon VM)
NEIGHBOURS = 4  # probes taken on each side of a sample to estimate the local speed

_MODULUS = (1 << 61) - 1


def _step(a: int, b: int) -> tuple[int, tuple]:
    return (a * b + 1) % _MODULUS, (a, b)


def probe() -> float:
    """Wall seconds of one pass over a fixed loop."""
    start = perf_counter()
    table, a = {}, 3
    for i in range(1800):
        a, pair = _step(a, i + 7)
        table[i & 127] = pair
    return perf_counter() - start


class SpeedTrack:
    """Probes from an interval timer while many samples are timed.

    Inside `with track:` a probe runs every `every_s` seconds, between two
    bytecodes of whatever is running.  Time a sample as

        begin = track.begin(); ...; wall, span = track.end(begin)

    `wall` leaves out the probes that ran inside the sample, and
    `calibrate(wall, span)` scales it by the median of the probes inside
    the sample and NEIGHBOURS on each side of it.
    """

    def __init__(self, every_s: float = 0.02):
        self.every_s = every_s
        self.probes: list[float] = []
        self._spent = 0.0

    def _on_timer(self, signum, frame):
        self.probes.append(probe())
        self._spent += self.probes[-1]

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def begin(self) -> tuple[int, float, float]:
        return len(self.probes), self._spent, perf_counter()

    def end(self, begin) -> tuple[float, tuple[int, int]]:
        now = perf_counter()
        first, spent, start = begin
        return now - start - (self._spent - spent), (first, len(self.probes))

    def calibrate(self, wall: float, span: tuple[int, int]) -> float:
        first, last = span
        near = self.probes[max(0, first - NEIGHBOURS):last + NEIGHBOURS]
        return wall * REF_PROBE_S / statistics.median(near)


def calibrated(work, probes: int = 3, every_s: float = 0.02) -> tuple[float, float]:
    """Run `work()` in the main thread: (calibrated, raw) seconds.

    Probes run before and after the work and, from an interval timer,
    every `every_s` during it; the time they take inside the work is
    taken out of its wall time.
    """
    inside: list[float] = []

    def on_timer(signum, frame):
        inside.append(probe())

    before = [probe() for _ in range(probes)]
    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    start = perf_counter()
    try:
        work()
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall -= sum(inside)
    after = [probe() for _ in range(probes)]
    return wall * REF_PROBE_S / statistics.median(before + inside + after), wall
