"""Baseline reconstructors wrapped as estimator backends.

These adapters put the paper's two comparison baselines behind the same
per-window :class:`~repro.backends.base.EstimatorBackend` contract as
the Domo QP, so a stream — or the benchmark harness —
can swap them in by name and every downstream consumer (window state
machine, serve tier, run reports) works unchanged.

Both are *approximate* backends: they ignore the constraint-system rows
and work from the packets alone, which also means a ladder-relaxed
re-solve would return the same answer — ``supports_relaxation`` is off.
"""

from __future__ import annotations

from repro.backends.base import (
    BackendCapabilities,
    EstimatorBackend,
    WindowSolution,
)
from repro.core.constraints import ConstraintSystem
from repro.core.records import ArrivalKey


def _clamped(system: ConstraintSystem, key_id: int, value: float) -> float:
    intervals = system.intervals
    return float(
        min(max(value, intervals.lows[key_id]), intervals.highs[key_id])
    )


class MntBackend(EstimatorBackend):
    """MNT bracketing (Keller et al., SenSys'12) per window.

    Runs :class:`~repro.baselines.mnt.MntReconstructor` over the
    window's packets and reports the bound midpoints — the estimate the
    paper's evaluation assigns to MNT (§VI.A).
    """

    name = "mnt"
    capabilities = BackendCapabilities(exact=False, supports_relaxation=False)

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        if system.num_unknowns == 0:
            return WindowSolution(estimates={}, solver="empty", result=None)
        from repro.baselines.mnt import MntConfig, MntReconstructor

        reconstructor = MntReconstructor(
            MntConfig(omega_ms=system.index.omega_ms)
        )
        reconstruction = reconstructor.reconstruct(system.index.packets)
        estimates = {
            key: _clamped(
                system,
                key_id,
                0.5 * sum(reconstruction.intervals[key]),
            )
            for key, key_id in zip(
                system.variables, system.index.key_space.unknown
            )
        }
        return WindowSolution(estimates=estimates, solver="mnt", result=None)


class MessageTracingBackend(EstimatorBackend):
    """MessageTracing (Sundaram & Eugster) per window.

    MessageTracing reconstructs *order*, never time: its causal DAG has
    no global clock, and the per-node logs it stitches are not part of a
    window's received-packet view anyway. The faithful per-window
    timing estimate an order-only method induces is uniform spacing —
    each packet's exact total delay split evenly over its hops —
    clamped into the Eq. (5) intervals.
    """

    name = "message-tracing"
    capabilities = BackendCapabilities(exact=False, supports_relaxation=False)

    def solve_window(
        self, system: ConstraintSystem, spec
    ) -> WindowSolution:
        if system.num_unknowns == 0:
            return WindowSolution(estimates={}, solver="empty", result=None)
        space = system.index.key_space
        estimates: dict[ArrivalKey, float] = {}
        for key, key_id in zip(system.variables, space.unknown):
            packet = space.packets[space.position_of_key[key_id]]
            hops = packet.path_length - 1
            total = packet.sink_arrival_ms - packet.generation_time_ms
            value = packet.generation_time_ms + total * key.hop / hops
            estimates[key] = _clamped(system, key_id, value)
        return WindowSolution(
            estimates=estimates, solver="message-tracing", result=None
        )
