"""Host speed probes: timings reported at one nominal host speed.

The benchmark runs on a few cores of a shared host whose speed swings
widely within minutes, with the other tenants' load: on a 2-core host
one ``batch-estimate`` pass took 2.3 s in one minute and 4.6 s a few
minutes earlier, with the program and its input unchanged. Ten runs of
the same code then spread by more than any useful bound.

So every run also times a fixed probe loop of the benchmark's own: a
short pure-interpreter loop, run before every pass and set-up it
measures and after the last, never while the program is working. A
timing ``t`` of an item run between two probes is reported as
``t * NOMINAL_S / p``, with ``p`` the mean of those two probe times:
the time it would have taken where the probe loop takes ``NOMINAL_S``.
A timing no probe could run beside (the server CPU time of a
``serve-live`` replay: a probe would compete with the server) is
scaled by the median of all the run's probes instead. Program changes
do not reach the probe loop; host speed reaches both. In ten
``batch-estimate`` runs whose raw median pass times spread by 0.32 of
their median (first to third quartile), the adjusted medians spread by
0.05. Every run prints its raw timings and its probe times next to the
adjusted values.
"""

from __future__ import annotations

import statistics
import time

#: probe loop time at the nominal host speed, seconds (a calm phase of
#: a 2-core shared x86-64 host, Python 3.11).
NOMINAL_S = 0.05
#: loops per probe; a probe takes about 0.15 s.
PROBE_REPS = 3


def _loop() -> int:
    total = 0
    table: dict[int, int] = {}
    for i in range(200_000):
        key = i % 61
        table[key] = table.get(key, 0) + i
        total += (i * 7919) % 1013
    return total + max(table.values())


class Probes:
    """The probe times of one run, in the order they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def take(self) -> int:
        """Time one probe (the mean over PROBE_REPS loops); returns its
        index, which the item timed next passes to :meth:`adjust`."""
        started = time.perf_counter()
        for _ in range(PROBE_REPS):
            _loop()
        self.times.append((time.perf_counter() - started) / PROBE_REPS)
        return len(self.times) - 1

    def adjust(self, seconds: float, before: int | None = None) -> float:
        """``seconds`` at the nominal host speed: of an item timed between
        probe ``before`` and the next probe, or, without ``before``, of
        one no probe could run beside, at the median of all probes."""
        if before is None:
            probe = statistics.median(self.times)
        else:
            probe = statistics.fmean(self.times[before:before + 2])
        return seconds * NOMINAL_S / probe

    def info(self) -> dict:
        return {"probe_s": [round(t, 5) for t in self.times]}
