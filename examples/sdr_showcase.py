#!/usr/bin/env python
"""The semidefinite-relaxation path, end to end (paper Eq. (1)-(4)).

Builds a tiny window with a *genuinely unresolved* FIFO pair — two packets
crossing the same forwarder so close together that no sound ordering can
be proven — and shows the three treatments side by side:

1. linearized mode (default): the pair is skipped, order constraints and
   sum-of-delays still apply;
2. the faithful SDR lift: the product constraint survives as
   ``Tr(PU) >= 0`` with the PSD moment block;
3. SDR + Gaussian randomized rounding (the paper's QCQP reference).

    python examples/sdr_showcase.py
"""

import numpy as np

from repro.core.constraints import ConstraintConfig, build_constraints
from repro.backends.domo_qp import estimate_arrival_times
from repro.core.records import ArrivalKey, TraceIndex
from repro.core.sdr import (
    SdrConfig,
    sdr_bounds,
    solve_window_sdr,
    solve_window_sdr_randomized,
)
from repro.sim.packet import PacketId
from repro.sim.trace import GroundTruthPacket, ReceivedPacket, TraceBundle


def build_window():
    """Two packets interleaving at forwarder 1, plus a context packet."""
    specs = [
        # (source, seqno, path, true arrival times, S(p))
        (2, 0, (2, 1, 4, 0), (0.0, 50.0, 70.0, 100.0), 50),
        (3, 0, (3, 1, 5, 0), (1.0, 52.0, 72.0, 101.0), 51),
        (2, 1, (2, 1, 4, 0), (200.0, 215.0, 240.0, 260.0), 15),
    ]
    received, truth = [], {}
    for source, seqno, path, times, s in specs:
        pid = PacketId(source, seqno)
        received.append(
            ReceivedPacket(
                packet_id=pid,
                path=path,
                generation_time_ms=times[0],
                sink_arrival_ms=times[-1],
                sum_of_delays_ms=s,
            )
        )
        truth[pid] = GroundTruthPacket(
            packet_id=pid, path=path, arrival_times_ms=times
        )
    return TraceBundle(received=received, ground_truth=truth)


def error_of(estimates, trace):
    errors = []
    for pid, truth in trace.ground_truth.items():
        for hop in range(1, len(truth.path) - 1):
            key = ArrivalKey(pid, hop)
            if key in estimates:
                errors.append(
                    abs(estimates[key] - truth.arrival_times_ms[hop])
                )
    return float(np.mean(errors))


def main() -> None:
    print("=== semidefinite relaxation showcase ===\n")
    trace = build_window()
    index = TraceIndex(list(trace.received))
    system = build_constraints(index, ConstraintConfig())
    print(
        f"{system.num_unknowns} unknowns, "
        f"{len(system.fifo_resolved)} resolved FIFO pairs, "
        f"{len(system.fifo_unresolved)} unresolved (kept for SDR)\n"
    )

    rng = np.random.default_rng(7)
    methods = [
        ("linearized QP", estimate_arrival_times(system)),
        ("SDR lift", solve_window_sdr(system, SdrConfig())),
        (
            "SDR + rounding",
            solve_window_sdr_randomized(
                system, SdrConfig(), num_samples=40, rng=rng
            ),
        ),
    ]
    for name, estimates in methods:
        print(f"{name:16s}: mean arrival error {error_of(estimates, trace):.2f} ms")

    print("\nSDP bounds over the lifted feasible set (vs intervals):")
    for key in system.variables:
        lo, hi = sdr_bounds(system, key, SdrConfig())
        ilo, ihi = system.intervals[key]
        truth = trace.ground_truth[key.packet_id].arrival_times_ms[key.hop]
        print(
            f"  {str(key):22s} interval [{ilo:6.1f},{ihi:6.1f}] "
            f"sdp [{lo:6.1f},{hi:6.1f}]  truth {truth:6.1f}"
        )


if __name__ == "__main__":
    main()
