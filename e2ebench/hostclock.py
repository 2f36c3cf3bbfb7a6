"""A clock that runs at the host's speed, sampled inside the measured
process.

The benchmark's host drifts: a fixed pure-Python loop runs up to 2.5x
slower for tens of seconds at a time, and the program slows with it (see
README.md, *Host drift*).  A timing taken in wall seconds therefore
measures the host's phase as much as the program.  ``HostClock`` times a
fixed probe loop on a timer signal every ``INTERVAL_S`` while the program
runs, in the program's own process and thread, so each probe sees the
host as the program saw it at that moment.  A wall interval divided by
the host's slowness over that interval gives *reference seconds*: the
time the work would have taken on the host in a phase where the probe
takes ``REFERENCE_PROBE_MS``.  The slowness of an interval is the
median of its probes (README.md, *Reference seconds*, compares it with
a trimmed mean).

The probes' own time is recorded, so callers subtract it from the wall
time they measure.  Start the clock in the main thread; signal handlers
run there.
"""

from __future__ import annotations

import json
import signal
import statistics
import time
from typing import List, Tuple

#: Probe loop length and period: about 1 ms of probing every 50 ms.
PROBE_ITERATIONS = 10_000
INTERVAL_S = 0.05
#: The probe's median time, in ms, on a fast phase of the 2-vCPU VM the
#: benchmark was built on.  A constant: it fixes the unit, not a result.
REFERENCE_PROBE_MS = 0.8


class HostClock:
    def __init__(self) -> None:
        #: (monotonic start, seconds) of every probe.
        self.samples: List[Tuple[float, float]] = []

    def _probe(self, signum, frame) -> None:
        started = time.monotonic()
        total = 0
        for value in range(PROBE_ITERATIONS):
            total += value * value % 7
        self.samples.append((started, time.monotonic() - started))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.samples, handle)


def probe_seconds(samples, start: float, end: float) -> float:
    """Time the probes took inside [start, end]."""
    return sum(seconds for at, seconds in samples if start <= at < end)


def slowness(samples, start: float, end: float) -> float:
    """How much slower than the reference phase the host ran during
    [start, end]: the probes' median time over REFERENCE_PROBE_MS."""
    inside = [seconds for at, seconds in samples if start <= at < end]
    if not inside:
        raise ValueError(f"no host probe inside [{start:.3f}, {end:.3f}]")
    return statistics.median(inside) * 1000.0 / REFERENCE_PROBE_MS


def reference_seconds(samples, start: float, end: float) -> float:
    """Wall seconds of [start, end], less the probes' own time, in
    reference seconds."""
    wall = end - start - probe_seconds(samples, start, end)
    return wall / slowness(samples, start, end)
