"""The host's CPU speed, sampled while the benchmark runs.

Other tenants of a shared host slow every instruction stream on it, by
up to 2x and for minutes at a time, so raw wall times of the same work
differ by that much between runs. While a run measures, a timer signal
interrupts the main thread every ``PERIOD_S`` of wall time and runs a
fixed pure-Python loop, the probe, recording the CPU time it took: that
CPU time rises with the host's slowdown. It does not rise when the
benchmark's own processes compete for cores, because CPU time does not
count time spent waiting for a core, so parallel speed-ups still show.

``scaled(t0, t1)`` is the wall time of the interval [t0, t1] at the
reference speed: each stretch between two probes is multiplied by
``REFERENCE_S`` over the CPU time of the probe that ends it (the stretch
after the last probe in the interval by the next probe's), and the
probes' own time is left out.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
# CPU time of one probe on an idle core of the 2-vCPU Xeon host the
# baseline was measured on (Python 3.11); scaled times are seconds at that
# speed. It is a unit, so the baseline and a change must share it.
REFERENCE_S = 1.0e-4


def probe_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(400):
        key = (i * 7919) % 97
        table[key] = table.get(key, 0) + i
        total += len(table) ^ (i & 15)
    return total


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.cpu_s: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        cpu0 = time.thread_time()
        t0 = time.perf_counter()
        probe_loop()
        t1 = time.perf_counter()
        self.cpu_s.append(max(time.thread_time() - cpu0, 1e-9))
        self.starts.append(t0)
        self.ends.append(t1)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        """Stop the timer; a last probe gives the speed after the last
        interval."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._sample()

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] at the reference speed; call after stop()."""
        first = bisect.bisect_left(self.starts, t0)
        last = bisect.bisect_left(self.starts, t1)
        total = 0.0
        edge = t0
        for k in range(first, last):
            total += (self.starts[k] - edge) * REFERENCE_S / self.cpu_s[k]
            edge = self.ends[k]
        k = min(last, len(self.cpu_s) - 1)
        return total + max(t1 - edge, 0.0) * REFERENCE_S / self.cpu_s[k]
