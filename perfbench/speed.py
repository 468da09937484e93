"""Machine-speed probe, so that timings can be read at a reference speed.

A shared virtual machine drifts between fast and slow states: on a 2-vCPU
Intel Xeon VM they were about 1.5x apart and lasted seconds to minutes, which
moves raw wall times far more than the changes the benchmark must resolve.
A fixed pure-Python probe, timed in the same thread while the workload runs,
slows down with it; scaling a wall time by REFERENCE_S / (mean probe time)
reads it at the speed where one probe takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import signal
import time

REFERENCE_S = 0.0004  # one probe in the fast state of that VM, Python 3.11
INTERVAL_S = 0.05


def probe() -> int:
    d = {}
    for i in range(2000):
        d[(i * 7919) % 1009] = (i, i + 1)
    return len(d)


def time_probe() -> float:
    """Seconds for one probe.  The collector is held off, and the probe frees
    all it allocates, so the program's garbage-collection schedule is kept."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(samples: list[float]) -> float:
    """Mean with the top and bottom 5% cut, so that a probe the scheduler
    preempted (tens of times its usual length) cannot dominate."""
    ranked = sorted(samples)
    cut = len(ranked) // 20
    kept = ranked[cut : len(ranked) - cut]
    return sum(kept) / len(kept)


def sample(n: int) -> float:
    """Probe time over n probes run back to back."""
    return trimmed_mean([time_probe() for _ in range(n)])


class Sampler:
    """Times one probe every INTERVAL_S of wall time, in the main thread, from
    a SIGALRM handler; ``mean`` is the probe time while it was active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(time_probe())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(time_probe())

    @property
    def mean(self) -> float:
        return trimmed_mean(self.samples)
