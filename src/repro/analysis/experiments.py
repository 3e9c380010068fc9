"""Evaluation primitives shared by all figures (paper §VI).

Three comparisons recur in Figs. 6-8:

* **estimated-value accuracy** — |reconstructed − true| per-hop delay,
  Domo vs MNT (midpoints of its bounds);
* **bound accuracy** — upper − lower width of the per-hop delay bounds,
  Domo vs MNT;
* **displacement** — the event-order metric, Domo vs MessageTracing.

Each ``evaluate_*`` function takes a trace (plus reconstructor configs)
and returns a small result object carrying :class:`ErrorStats` per method.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.baselines.message_tracing import MessageTracingReconstructor
from repro.baselines.mnt import MntConfig, MntReconstructor
from repro.core.metrics import (
    ErrorStats,
    bound_width_stats,
    element_displacements,
    estimation_error_stats,
)
from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.analysis.scenarios import (
    SUBSTRATE_ARRIVAL_MARGIN_MS,
    SUBSTRATE_DEPARTURE_MARGIN_MS,
    SUBSTRATE_OMEGA_MS,
)
from repro.sim.trace import TraceBundle


def substrate_domo_config(**overrides) -> DomoConfig:
    """DomoConfig tuned to this substrate's MAC timing.

    The paper's defaults (omega = 1 ms, no event-spacing margins) are
    substrate-agnostic; our simulator's MAC guarantees larger minimum
    spacings, which both Domo and MNT may soundly exploit. All evaluation
    functions use this config unless an explicit one is passed.
    """
    config = DomoConfig(omega_ms=SUBSTRATE_OMEGA_MS, **overrides)
    config.constraints.omega_ms = SUBSTRATE_OMEGA_MS
    config.constraints.fifo_arrival_margin_ms = SUBSTRATE_ARRIVAL_MARGIN_MS
    config.constraints.fifo_departure_margin_ms = (
        SUBSTRATE_DEPARTURE_MARGIN_MS
    )
    return config


def substrate_mnt_config() -> MntConfig:
    """MNT with the same substrate-derived omega (fair comparison)."""
    return MntConfig(omega_ms=SUBSTRATE_OMEGA_MS)


@dataclass
class AccuracyComparison:
    """Fig. 6(a)-style result: estimation error per method."""

    domo: ErrorStats
    mnt: ErrorStats
    domo_time_per_delay_ms: float = 0.0
    per_node_average_delay: dict[int, tuple[float, float, float]] = field(
        default_factory=dict
    )  # node -> (true, domo, mnt)


@dataclass
class BoundsComparison:
    """Fig. 6(b)-style result: delay bound widths per method."""

    domo: ErrorStats
    mnt: ErrorStats
    domo_time_per_bound_ms: float = 0.0
    #: Domo's bounds per method ("lp", "lp_relaxed", "interval").
    domo_methods: dict[str, int] = field(default_factory=dict)


@dataclass
class DisplacementComparison:
    """Fig. 6(c)-style result: event-order displacement per method."""

    domo: ErrorStats
    message_tracing: ErrorStats


def evaluate_accuracy(
    trace: TraceBundle,
    domo_config: DomoConfig | None = None,
    mnt_config: MntConfig | None = None,
) -> AccuracyComparison:
    """Estimated-value accuracy of Domo vs MNT against ground truth."""
    domo = DomoReconstructor(domo_config or substrate_domo_config())
    estimate = domo.estimate(trace)
    mnt = MntReconstructor(
        mnt_config or substrate_mnt_config()
    ).reconstruct(trace)

    domo_errors: list[float] = []
    mnt_errors: list[float] = []
    per_node: dict[int, list[tuple[float, float, float]]] = {}
    for packet in trace.received:
        truth = trace.truth_of(packet.packet_id).node_delays()
        domo_delays = estimate.delays_of(packet.packet_id)
        mnt_delays = mnt.estimated_delays(packet.packet_id)
        for hop, (true_d, domo_d, mnt_d) in enumerate(
            zip(truth, domo_delays, mnt_delays)
        ):
            domo_errors.append(domo_d - true_d)
            mnt_errors.append(mnt_d - true_d)
            per_node.setdefault(packet.path[hop], []).append(
                (true_d, domo_d, mnt_d)
            )
    averages = {
        node: (
            sum(t for t, _, _ in rows) / len(rows),
            sum(d for _, d, _ in rows) / len(rows),
            sum(m for _, _, m in rows) / len(rows),
        )
        for node, rows in per_node.items()
    }
    return AccuracyComparison(
        domo=estimation_error_stats(domo_errors),
        mnt=estimation_error_stats(mnt_errors),
        domo_time_per_delay_ms=estimate.time_per_delay_ms,
        per_node_average_delay=averages,
    )


def evaluate_domo_bounds(
    trace: TraceBundle,
    domo_config: DomoConfig | None = None,
    max_packets: int | None = None,
) -> tuple[ErrorStats, float, dict[str, int]]:
    """Domo's half of :func:`evaluate_bounds`: delay bound width stats,
    ms per bound, and bounds per method ("lp", "lp_relaxed", "interval").

    ``max_packets`` limits the LP targets (the paper reports per-bound
    cost, so sampling preserves the metric while bounding runtime).
    """
    packets = trace.received
    wanted = None
    if max_packets is not None and len(packets) > max_packets:
        wanted = [p.packet_id for p in packets[:max_packets]]
    domo = DomoReconstructor(domo_config or substrate_domo_config())
    bounds = domo.bounds(trace, packet_ids=wanted)
    domo_widths = []
    for pid in set(key.packet_id for key in bounds.bounds):
        domo_widths.extend(hi - lo for lo, hi in bounds.delay_bounds(pid))
    methods = Counter(entry.method for entry in bounds.bounds.values())
    return (
        bound_width_stats(domo_widths),
        bounds.time_per_bound_ms,
        dict(methods),
    )


def evaluate_bounds(
    trace: TraceBundle,
    domo_config: DomoConfig | None = None,
    mnt_config: MntConfig | None = None,
    max_packets: int | None = None,
) -> BoundsComparison:
    """Bound widths of Domo vs MNT.

    ``max_packets`` limits Domo's LP targets (see
    :func:`evaluate_domo_bounds`); MNT is cheap and always bounds
    everything.
    """
    domo, per_bound_ms, methods = evaluate_domo_bounds(
        trace, domo_config, max_packets
    )
    mnt = MntReconstructor(
        mnt_config or substrate_mnt_config()
    ).reconstruct(trace)
    return BoundsComparison(
        domo=domo,
        mnt=bound_width_stats(mnt.delay_widths()),
        domo_time_per_bound_ms=per_bound_ms,
        domo_methods=methods,
    )


def evaluate_displacement(
    trace: TraceBundle,
    domo_config: DomoConfig | None = None,
) -> DisplacementComparison:
    """Event-order displacement of Domo vs MessageTracing."""
    tracer = MessageTracingReconstructor()
    truth_order = tracer.true_transmission_order(trace)
    tracing_order = tracer.global_transmission_order(trace)
    estimate = DomoReconstructor(
        domo_config or substrate_domo_config()
    ).estimate(trace)
    domo_order = tracer.order_from_arrival_times(estimate.arrival_times)
    return DisplacementComparison(
        domo=ErrorStats(element_displacements(domo_order, truth_order)),
        message_tracing=ErrorStats(
            element_displacements(tracing_order, truth_order)
        ),
    )
