"""Interval arithmetic over arrival times: trivial bounds and propagation.

Both Domo's FIFO-direction resolution and the MNT baseline reason with
per-arrival-time intervals ``[lo, hi]``. They keep them as two float
lists indexed by :class:`~repro.core.records.KeySpace` key id, and this
module holds the one implementation of the passes over them: the
initial trivial intervals and the monotonicity propagation (arrival
times along one packet's path are separated by at least omega, so
bounds push forward and backward). :class:`KeyIntervals` reads the two
lists back by :class:`~repro.core.records.ArrivalKey`.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.core.records import ArrivalKey, KeySpace, TraceIndex

Interval = tuple[float, float]


def trivial_intervals(index: TraceIndex) -> tuple[list[float], list[float]]:
    """Order-constraint intervals of every arrival time, as fresh
    ``(lows, highs)`` lists over the index's key ids."""
    space = index.key_space
    return list(space.low), list(space.high)


def propagate_path_monotonicity(
    space: KeySpace, lows: list[float], highs: list[float]
) -> int:
    """Tighten intervals along each packet's path in place.

    Enforces ``lo(t_{i+1}) >= lo(t_i) + omega`` (forward sweep) and
    ``hi(t_i) <= hi(t_{i+1}) - omega`` (backward sweep), packet by packet
    in index order. Returns how many interval endpoints were tightened.
    """
    omega = space.omega_ms
    offsets = space.offsets
    tightened = 0
    for first, end in zip(offsets, offsets[1:]):
        for key in range(first + 1, end):
            bound = lows[key - 1] + omega
            if bound > lows[key]:
                lows[key] = bound
                tightened += 1
        for key in range(end - 2, first - 1, -1):
            bound = highs[key + 1] - omega
            if bound < highs[key]:
                highs[key] = bound
                tightened += 1
    return tightened


def clip_to_valid(lows: list[float], highs: list[float]) -> list[int]:
    """Repair any inverted intervals (lo > hi) by collapsing to midpoint.

    Inversions indicate inconsistent tightening (e.g. a wrong FIFO
    resolution under heavy quantization); collapsing keeps downstream
    solvers well-posed. Returns the repaired key ids for diagnostics.
    """
    repaired = []
    for key, (lo, hi) in enumerate(zip(lows, highs)):
        if lo > hi:
            mid = 0.5 * (lo + hi)
            lows[key] = highs[key] = mid
            repaired.append(key)
    return repaired


class KeyIntervals(Mapping):
    """Read-only ``ArrivalKey -> (lo, hi)`` view of two interval lists.

    Keys are made on iteration only, so a consumer that never asks for
    them costs nothing; ``lows`` / ``highs`` stay addressable by key id.
    """

    def __init__(
        self, space: KeySpace, lows: list[float], highs: list[float]
    ) -> None:
        self.space = space
        self.lows = lows
        self.highs = highs

    def __getitem__(self, key: ArrivalKey) -> Interval:
        key_id = self.space.key_id(key)
        return self.lows[key_id], self.highs[key_id]

    def __iter__(self) -> Iterator[ArrivalKey]:
        return map(self.space.arrival_key, range(len(self.lows)))

    def __len__(self) -> int:
        return len(self.lows)


def width(interval: Interval) -> float:
    """Convenience: ``hi - lo``."""
    return interval[1] - interval[0]
