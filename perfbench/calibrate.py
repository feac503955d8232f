"""Timing corrected for contention from other tenants of the host.

On a host whose cores are shared with other tenants, the same operation can
take 1.5 times as long for minutes at a time, and the guest sees no steal
time.  So ``Timer`` runs a reference loop of fixed work from an interval
timer signal while the timed code runs, and a few times just before.  The
code's time, less the time spent in the reference loop, divided by the
reference loop's mean time over the same interval, is the code's work in
reference-loop units.  Times ``REFERENCE_S`` it is the time the code takes
at the speed of an uncontended core of the machine the benchmark was tuned
on.  The reference loop does the kind of work heyde_lab does, so contention
slows them alike; a bare dict loop tracked heyde_lab's slowdown less
closely.
"""

from __future__ import annotations

import signal
import time

#: The reference loop's time on an uncontended core of the tuning machine
#: (2-vCPU Intel Xeon, Python 3.11.7).  It only scales the results.
REFERENCE_S = 4.2e-4

#: Seconds between reference-loop samples while the timed code runs.
INTERVAL_S = 0.01

#: Samples taken just before the timed code, so that short code has some.
PRIMING = 5


class _Pair:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second


_ORDERS = (9, 27, 3)


def reference_loop() -> int:
    """Fixed work in the mix heyde_lab spends its time on: residue tuples
    built from generators, dict lookups keyed by them, small objects and
    complex arithmetic."""
    table: dict = {}
    acc = 0j
    for i in range(200):
        x = tuple((i * k) % n for k, n in zip((1, 2, 5), _ORDERS))
        y = tuple((a + b) % n for a, b, n in zip(x, (4, 7, 1), _ORDERS))
        table[y] = table.get(y, 0) + 1
        pair = _Pair(x, y)
        acc += complex(pair.first[0], pair.second[1]) * (0.5 - 0.25j)
    return len(table)


class Timer:
    """Context manager timing its body; the results are set on exit.

    ``raw_s`` is the body's wall time, ``net_s`` that time less the
    reference loop's samples taken inside it, and ``corrected_s`` the
    contention-corrected time.
    """

    def _sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> Timer:
        self.samples: list[float] = []
        for _ in range(PRIMING):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw_s = time.perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.net_s = self.raw_s - sum(self.samples[PRIMING:])
        mean_sample = sum(self.samples) / len(self.samples)
        self.corrected_s = self.net_s / mean_sample * REFERENCE_S
