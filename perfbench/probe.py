"""A speed probe that makes timings comparable on a shared machine.

On a machine shared with other tenants, the same code runs up to 1.7x
slower for tens of seconds at a time, so raw timings taken minutes apart
spread by 30% or more.  Every worker process therefore runs a fixed probe
every ``PERIOD_S`` seconds, interleaved with the program on the same
core: a pure-Python loop plus a sum over an array larger than the caches,
so that both interpreter speed and memory bandwidth are sampled.  The
median probe duration measures how fast the machine was while the program
ran.  A time is reported as ``measured * REFERENCE_S / median probe``:
the time it would have taken at a speed where one probe takes exactly
``REFERENCE_S``.

The probe's own time is kept out of every measurement: :meth:`clock` runs only while the program does.
"""

from __future__ import annotations

import signal
import statistics
import time

__all__ = ["PERIOD_S", "REFERENCE_S", "SpeedProbe"]

#: Interval between probes (wall time).
PERIOD_S = 0.1

#: Iterations of the probe's Python loop.
SPIN = 20_000

#: Bytes of the probe's buffer.
SWEEP = 16_000_000

#: Probe duration that defines reference speed.
REFERENCE_S = 0.003


class SpeedProbe:
    """Runs the probe from a timer signal and records its durations."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent in the probe so far.
        self.total = 0.0
        # Write a byte into every page so the scan reads real memory
        # rather than the shared zero page.
        self._buffer = bytearray(SWEEP)
        self._buffer[::4096] = b"\x02" * len(range(0, SWEEP, 4096))

    def _run(self, signum: int, frame: object) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(SPIN):
            acc += i * i % 7
        self._buffer.find(1)  # no byte is 1: scans the whole buffer
        duration = time.perf_counter() - started
        self.samples.append(duration)
        self.total += duration

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def clock(self) -> float:
        """``perf_counter`` minus the time spent in the probe."""
        return time.perf_counter() - self.total

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        if not self.samples:
            self._run(signal.SIGALRM, None)
        return REFERENCE_S / statistics.median(self.samples)
