"""Wall time expressed in reference seconds: time the host would have taken at its calibrated speed.

The host is shared. Its speed for pure-Python work drifts by up to 40 % within
seconds, in bursts of one to three seconds, and process CPU time drifts with it,
so no clock choice removes the drift. The benchmark instead measures the drift
alongside the program: a fixed kernel owned by the benchmark (small-integer
bytecode plus modular squaring of 127-bit integers, the mix of vpal's hot
loops) is timed every ``PERIOD_S`` of wall time from a ``SIGALRM`` handler, so
probes land inside long items as well as between them. Over two-second
windows of a 100-second test, four kinds of vpal item spread 21 to 29 % in
raw time (quartile distance over median) and 5 to 11 % in their ratio to
this kernel.

A stretch of wall time between two probes counts as its length times
``NOMINAL_PROBE_S`` over the local probe time, the local probe time being the
median of the five probes around each end. Probe time is not counted. The
benchmark never edits the kernel or the constant, so a change that makes vpal
faster shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# Median kernel time on the calibration host (2 vCPU, Python 3.11.7) in a quiet stretch.
NOMINAL_PROBE_S = 0.00023
PERIOD_S = 0.025
SMOOTHING = 5

_MODULUS = (1 << 127) - 1


def kernel() -> int:
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(360):
        x = (x * x + i) % _MODULUS
        acc += x & 0xFF
        if acc & 1:
            acc ^= i
    return acc


class HostClock:
    """Probes of the host's speed, taken on demand or on a timer, and the conversion they allow."""

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []
        self._bounds: list[float] = []
        self._reference: list[float] = []
        self._rates: list[float] = []
        self._previous_handler = None

    def probe(self) -> None:
        start = time.monotonic()
        kernel()
        self.probes.append((start, time.monotonic()))

    def _on_alarm(self, signum, frame) -> None:
        self.probe()

    def __enter__(self) -> "HostClock":
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def slowdown(self) -> float:
        """Median probe time over the nominal one: 1.2 means the host ran 20 % slow."""
        return statistics.median(end - start for start, end in self.probes) / NOMINAL_PROBE_S

    def _build(self) -> None:
        """Cumulative reference time at every probe's start and end; flat across a probe."""
        durations = [end - start for start, end in self.probes]
        half = SMOOTHING // 2
        local = [statistics.median(durations[max(0, j - half): j + half + 1])
                 for j in range(len(durations))]
        bounds, reference, rates = [], [], []
        total = 0.0
        for j, (start, end) in enumerate(self.probes):
            if j:
                gap_rate = NOMINAL_PROBE_S / ((local[j - 1] + local[j]) / 2)
                total += (start - bounds[-1]) * gap_rate
                rates.append(gap_rate)
            bounds += [start, end]
            reference += [total, total]
            rates.append(0.0)
        self._bounds, self._reference = bounds, reference
        self._rates = [NOMINAL_PROBE_S / local[0]] + rates + [NOMINAL_PROBE_S / local[-1]]

    def _at(self, t: float) -> float:
        i = bisect.bisect_right(self._bounds, t)
        if i == 0:
            return (t - self._bounds[0]) * self._rates[0]
        return self._reference[i - 1] + (t - self._bounds[i - 1]) * self._rates[i]

    def reference_seconds(self, start: float, end: float) -> float:
        """Reference seconds in the wall interval [start, end] of ``time.monotonic()``."""
        if len(self._bounds) != 2 * len(self.probes):
            self._build()
        return self._at(end) - self._at(start)
