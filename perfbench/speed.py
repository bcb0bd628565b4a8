"""Request timing that cancels the host's drifting CPU speed.

On a shared host the same pure-Python work can take 1.5-2x longer from
one second to the next, as other tenants come and go. The clock therefore
runs a fixed calibration kernel every INTERVAL_S (from a SIGALRM handler,
between the program's bytecodes) and after every request. A request's time
is its wall time minus the kernel runs inside it, scaled by REF_S times the
mean speed 1/kernel-time over the kernel runs from just before it to just
after it. The result reads as seconds on a host where the kernel takes
REF_S; both raw and scaled times are kept.

The kernel uses builtins only, so timing it imports nothing the program
could share.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# About the kernel time on the 2-core host the benchmark was defined on.
REF_S = 0.001


def kernel() -> int:
    """About a millisecond of dict, frozenset, integer and sort work."""
    table: dict[frozenset[int], int] = {}
    acc = 0
    for i in range(1000):
        key = frozenset((i % 61, i % 7, i % 13))
        table[key] = table.get(key, 0) + i
        acc += (i * 7919) % 104729 // 3
    return acc + len(sorted(table.values()))


def timed_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedClock:
    """Context manager that samples the kernel while it is entered."""

    def __init__(self):
        self.samples: list[float] = []
        self._in_kernel = 0.0
        self._previous = None
        self._busy = False

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # the timer fired inside an explicit sample
            return
        self._busy = True
        took = timed_kernel()
        self.samples.append(took)
        self._in_kernel += took
        self._busy = False

    def __enter__(self) -> "SpeedClock":
        for _ in range(3):
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(result, raw seconds, scaled seconds) of one call of fn."""
        first = len(self.samples) - 1
        in_kernel = self._in_kernel
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start - (self._in_kernel - in_kernel)
        self._sample()
        window = self.samples[first:]
        speed = sum(1 / s for s in window) / len(window)
        return result, raw, raw * REF_S * speed
