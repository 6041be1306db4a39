"""Operation timings corrected for the speed of a shared host.

The 2-vCPU VM this benchmark was tuned on runs at one of two speeds about
1.6x apart, and each lasts from seconds to several minutes (a fixed
pure-Python loop, timed back to back for ten minutes, took ~6 ms in one
state and ~10 ms in the other). Two runs of the same code a few minutes
apart could then differ by 30 % in wall time, whatever statistic was taken
within a run.

So every timed operation is bracketed by a probe: a fixed pure-Python loop,
timed with the CPU clock of the benchmark's own thread, just before and just
after it. The operation's wall time is scaled by ``REFERENCE_PROBE_S`` over
the probe's median, which gives seconds at a fixed host speed. The probe
uses ``time.thread_time()`` so that threads the program might leave running
cannot slow it: only the host can. The raw wall time and the probe stay in
each run's record.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass

PROBE_LOOPS = 25_000
PROBE_REPEATS = 5
# About the probe's median over the runs on the 2-vCPU Xeon VM the bounds
# were set on. A scale only: a corrected time reads roughly as the wall time
# on that host at its usual speed.
REFERENCE_PROBE_S = 2.0e-3


def probe() -> list[float]:
    """CPU seconds of PROBE_REPEATS runs of a fixed pure-Python loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.thread_time()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        times.append(time.thread_time() - t0)
    return times


@dataclass(frozen=True)
class Timing:
    """One operation: its wall time and the host's probe time around it."""

    wall_s: float
    probe_s: float

    @property
    def s(self) -> float:
        """Wall time at the reference host speed."""
        return self.wall_s * REFERENCE_PROBE_S / self.probe_s


@contextlib.contextmanager
def timed(timings: list[Timing]):
    """Time the block, probing the host before and after; append a Timing."""
    before = probe()
    t0 = time.perf_counter()
    yield
    wall = time.perf_counter() - t0
    timings.append(Timing(wall, statistics.median(before + probe())))
