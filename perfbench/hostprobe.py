"""Host-speed probe: a fixed piece of work, timed while the requests run.

The benchmark host is shared, and its speed drifts by tens of percent within
minutes.  Measured alone, end-to-end times then spread more between runs than
any bound a regression check can use.  The probe does a fixed amount of the
same kind of work as the package (small NumPy operations dispatched from
Python loops, and scalar Python arithmetic) and never calls the package, so a
change to the package cannot move it.

The host's speed changes within seconds, so the probe must sample it while the
requests run, not only between them: inside ``running()`` an interval timer
runs the probe from a SIGALRM handler every INTERVAL_S, in the main thread
between bytecodes, and the benchmark subtracts the probe's own time from each
request.  Each request's time is then scaled to the reference speed by the
probes taken while it ran, widened to at least WINDOW_S around it:
scaled = measured * REFERENCE_S / mean(probe times in the window).  The mean,
not the median, because short slow spells of the host slow the requests too.
Set-up times are scaled the same way by bursts of probes taken between the
fresh interpreter starts.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

# About the mean probe time on the machine the benchmark was defined on (2 vCPUs,
# Python 3.11.7, NumPy 2.4.6); it only fixes the scale of reported times.
REFERENCE_S = 0.001
# Timer period inside running(); with a probe of about REFERENCE_S the probe takes 5% of the time.
INTERVAL_S = 0.02
# Shortest stretch of probes that scales one request: about 250 probes.
WINDOW_S = 5.0


class HostProbe:
    """Times the fixed probe work and collects the times over a run."""

    def __init__(self):
        import numpy as np  # imported here, after the caller has pinned BLAS threads

        self._np = np
        self._angles = np.linspace(0.0, 3.0, 256).reshape(32, 8)
        self._matrix = np.array(
            [[2.0, 1.0j, 0.5, 0.0], [-1.0j, 1.0, 0.0, 0.25], [0.5, 0.0, 3.0, 1.0], [0.0, 0.25, 1.0, 0.5]]
        )
        self.times: list[float] = []
        self.stamps: list[float] = []  # perf_counter() at the end of each probe
        self.spent_s = 0.0
        self._probing = False

    def work(self) -> float:
        """The fixed work; returns a checksum so none of it can be skipped."""
        np = self._np
        x = self._angles.copy()
        m = self._matrix.copy()
        acc = 0.0
        for k in range(12):
            x = 0.5 * np.sin(x) + 0.5 * np.cos(x[:, ::-1])
            acc += float(np.einsum("ij,ij->", x, x))
            for p in range(3):
                for q in range(p + 1, 4):
                    h = abs(m[p, q]) + 1e-300
                    t = 1.0 / (1.0 + h + k)
                    c = 1.0 / np.sqrt(1.0 + t * t)
                    col = m[:, p].copy()
                    m[:, p] = c * col - t * c * m[:, q]
                    m[:, q] = t * c * col + c * m[:, q]
                    acc += float(abs(m[p, p]))
        return acc

    def sample(self, count: int) -> None:
        """Time the work ``count`` times in a row."""
        for _ in range(count):
            t0 = time.perf_counter()
            self.work()
            dt = time.perf_counter() - t0
            self.times.append(dt)
            self.stamps.append(t0 + dt)
            self.spent_s += dt

    def _on_alarm(self, signum, frame) -> None:
        if self._probing:  # a stalled probe outlived the period; never nest them
            return
        self._probing = True
        try:
            self.sample(1)
        finally:
            self._probing = False

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S of wall time while the block runs; ``spent_s`` grows by the probe time."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Factor mapping a time measured in [start, end] to the reference host speed.

        Uses the probes in that interval widened to WINDOW_S, or every probe
        when no interval is given or none fell in it.
        """
        times = self.times
        if start is not None:
            middle, half = (start + end) / 2.0, max((end - start) / 2.0, WINDOW_S / 2.0)
            lo = bisect.bisect_left(self.stamps, middle - half)
            hi = bisect.bisect_right(self.stamps, middle + half)
            times = self.times[lo:hi] or self.times
        return REFERENCE_S * len(times) / sum(times)
