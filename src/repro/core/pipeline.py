"""The public Domo API: :class:`DomoReconstructor`.

Typical use::

    from repro import DomoConfig, DomoReconstructor, simulate_network

    trace = simulate_network(num_nodes=100, seed=1)
    domo = DomoReconstructor(DomoConfig())
    estimate = domo.estimate(trace.received)     # per-hop arrival times
    bounds = domo.bounds(trace.received)         # per-hop bound intervals

Both entry points accept the plain list of
:class:`~repro.sim.trace.ReceivedPacket` records — the four quantities the
sink actually has (path, t0, sink arrival, S(p)) — and never touch ground
truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from repro.backends import DEFAULT_BACKEND, backend_names
from repro.backends.domo_qp import EstimatorConfig
from repro.core.bounds import BoundComputer, BoundResult, BoundsConfig
from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.preprocessor import choose_window_span
from repro.core.records import ArrivalKey, TraceIndex, assemble_arrival_vector
from repro.core.sdr import SdrConfig
from repro.core.validation import (
    ValidationConfig,
    ValidationReport,
    validate_packets,
)
from repro.obs.spans import span
from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket, TraceBundle

FIFO_MODES = ("linearized", "sdr", "none")


def constraint_config_for(
    config: "DomoConfig", report: ValidationReport | None = None
) -> ConstraintConfig:
    """The effective constraint config for one reconstruction run.

    Shared by the batch entry points and the streaming engine so both
    arm the same degradations: ``fifo_mode="none"`` enumerates no FIFO
    pairs (a zero per-visit cap), and detected corruption switches
    on the constraint-level fallbacks (flagged S(p) fields emit no sum
    rows; quarantined packets — known loss — downgrade Eq. (6) to the
    loss-tolerant C*(p)-only Eq. (7) form).
    """
    cfg = config.constraints
    if config.fifo_mode == "none":
        cfg = replace(cfg, max_fifo_pairs_per_visit=0)
    if report is not None and not report.clean:
        cfg = replace(
            cfg,
            distrusted_sum_ids=frozenset(report.distrusted_sums),
            loss_aware_sums=(
                cfg.loss_aware_sums or report.num_quarantined > 0
            ),
        )
    return cfg


@dataclass
class DomoConfig:
    """All tuning knobs of the reconstruction, with the paper's defaults."""

    #: minimum software processing delay per hop (omega), ms.
    omega_ms: float = 1.0
    #: Eq. (8) pairing horizon (epsilon), ms.
    epsilon_ms: float = 1000.0
    #: paper §IV.B: fraction of each window whose estimates are kept.
    effective_window_ratio: float = 0.5
    #: windows are sized to hold roughly this many packets.
    target_window_packets: int = 60
    #: explicit window span override (ms); None = auto from density.
    window_span_ms: float | None = None
    #: "linearized" (resolved pairs, default), "sdr" (full Eq. (2)-(4)
    #: lift) or "none" (drop FIFO constraints; ablation).
    fifo_mode: str = "linearized"
    #: paper §IV.C: vertices per extracted sub-graph.
    graph_cut_size: int = 10_000
    use_blp: bool = True
    #: solve the independent window subproblems in a process pool. The
    #: result is byte-identical to a serial run; a pool that cannot be
    #: created degrades to serial automatically.
    parallel: bool = False
    #: worker processes for the parallel executor; None = os.cpu_count().
    max_workers: int | None = None
    #: trace-ingestion validation (strict/repair/drop/off). The default
    #: "repair" mode is a no-op on clean traces — estimates stay
    #: byte-identical to the unvalidated pipeline — and quarantines or
    #: distrusts corrupt packets on dirty ones.
    validation: ValidationConfig = field(default_factory=ValidationConfig)
    constraints: ConstraintConfig = field(default_factory=ConstraintConfig)
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    sdr: SdrConfig = field(default_factory=SdrConfig)
    #: estimator backend by registry name: "domo-qp" (the paper's Eq. (8)
    #: QP, default) or one of the baselines ("mnt", "message-tracing").
    #: See :mod:`repro.backends`.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        if self.fifo_mode not in FIFO_MODES:
            raise ValueError(
                f"fifo_mode {self.fifo_mode!r} not in {FIFO_MODES}"
            )
        if self.backend not in backend_names():
            raise ValueError(
                f"backend {self.backend!r} not registered; "
                f"known backends: {', '.join(backend_names())}"
            )
        if self.window_span_ms is not None and self.window_span_ms <= 0.0:
            raise ValueError(
                f"window_span_ms must be positive, got {self.window_span_ms}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {self.max_workers}"
            )
        # Propagate the top-level knobs into *copies* of the sub-configs:
        # mutating user-supplied objects in place would cross-contaminate
        # a ConstraintConfig/SdrConfig shared between two DomoConfigs.
        self.constraints = replace(self.constraints, omega_ms=self.omega_ms)
        self.estimator = replace(self.estimator, epsilon_ms=self.epsilon_ms)
        self.sdr = replace(self.sdr, estimator=self.estimator)
        self.validation = replace(self.validation, omega_ms=self.omega_ms)

    def solve_spec(self):
        """The per-window solve spec this config implies.

        Single construction point shared by the streaming engine and the
        serve tier, so every path hands workers the same
        :class:`~repro.runtime.executor.WindowSolveSpec`.
        """
        # Imported here, not at module scope: repro.runtime.executor
        # already builds on repro.backends and would otherwise lengthen
        # this module's import chain for every consumer.
        from repro.runtime.executor import WindowSolveSpec

        return WindowSolveSpec(
            fifo_mode=self.fifo_mode,
            estimator=self.estimator,
            sdr=self.sdr,
            backend=self.backend,
        )


@dataclass
class DelayReconstruction:
    """Estimated per-hop arrival times for a set of packets."""

    #: full arrival-time vectors (index = hop), knowns included.
    arrival_times: dict[PacketId, list[float]]
    #: raw interior estimates by key.
    estimates: dict[ArrivalKey, float]
    windows_used: int = 0
    solve_time_s: float = 0.0
    stats: dict = field(default_factory=dict)

    def delays_of(self, packet_id: PacketId) -> list[float]:
        """Reconstructed per-hop node delays of one packet."""
        times = self.arrival_times[packet_id]
        return [b - a for a, b in zip(times, times[1:])]

    @property
    def num_estimated(self) -> int:
        return len(self.estimates)

    @property
    def time_per_delay_ms(self) -> float:
        """PC-side execution time per reconstructed delay (paper Fig. 9b)."""
        if not self.estimates:
            return 0.0
        return 1000.0 * self.solve_time_s / len(self.estimates)


@dataclass
class BoundReconstruction:
    """Arrival-time bounds plus helpers to read per-hop delay bounds."""

    bounds: dict[ArrivalKey, BoundResult]
    index: TraceIndex
    solve_time_s: float = 0.0
    stats: dict = field(default_factory=dict)

    def arrival_bounds(self, packet_id: PacketId) -> list[tuple[float, float]]:
        """(lower, upper) for every hop of a packet (knowns are points)."""
        packet = self.index.by_id[packet_id]
        result = []
        for hop in range(packet.path_length):
            key = ArrivalKey(packet_id, hop)
            if key in self.bounds:
                entry = self.bounds[key]
                result.append((entry.lower, entry.upper))
            else:
                value = self.index.known_value(key)
                result.append((value, value))
        return result

    def delay_bounds(self, packet_id: PacketId) -> list[tuple[float, float]]:
        """Per-hop delay intervals: D_i in [lo_{i+1}-hi_i, hi_{i+1}-lo_i]."""
        arrivals = self.arrival_bounds(packet_id)
        return [
            (later[0] - earlier[1], later[1] - earlier[0])
            for earlier, later in zip(arrivals, arrivals[1:])
        ]

    def delay_widths(self) -> list[float]:
        """All per-hop delay bound widths (the paper's bound accuracy)."""
        widths = []
        for packet in self.index.packets:
            for lo, hi in self.delay_bounds(packet.packet_id):
                widths.append(hi - lo)
        return widths

    @property
    def time_per_bound_ms(self) -> float:
        """PC-side execution time per bound (paper Fig. 10b)."""
        if not self.bounds:
            return 0.0
        return 1000.0 * self.solve_time_s / len(self.bounds)


class DomoReconstructor:
    """End-to-end PC-side reconstruction (estimates and bounds)."""

    def __init__(self, config: DomoConfig | None = None) -> None:
        self.config = config or DomoConfig()

    # ------------------------------------------------------------------

    @staticmethod
    def _as_packets(trace) -> list[ReceivedPacket]:
        if isinstance(trace, TraceBundle):
            return list(trace.received)
        return list(trace)

    def _prepare(
        self, trace
    ) -> tuple[list[ReceivedPacket], ValidationReport]:
        """Validate the input packets and fold in any ingest-time report.

        In the default ``repair`` mode a clean trace passes through with
        the same objects in the same order, so the hardened pipeline is
        byte-identical to the seed pipeline on clean data.
        """
        packets = self._as_packets(trace)
        packets, report = validate_packets(packets, self.config.validation)
        ingest = getattr(trace, "validation_report", None)
        if isinstance(ingest, ValidationReport):
            report.merge(ingest)
        return packets, report

    def _constraint_config(
        self, report: ValidationReport | None = None
    ) -> ConstraintConfig:
        return constraint_config_for(self.config, report)

    # ------------------------------------------------------------------

    def estimate(self, trace) -> DelayReconstruction:
        """Estimated arrival times via windowed Eq. (8) optimization.

        Runs as "ingest everything, then flush" on the streaming engine
        (:class:`~repro.stream.engine.StreamingReconstructor`): an
        infinite lateness allowance defers every window seal to the
        flush, at which point the engine plans the same window grid over
        the same packet set the batch planner would — so the result is
        identical to the historical batch sweep. With
        ``config.parallel`` the independent window subproblems run on a
        process pool; the merged result is identical to a serial run
        (same solves, merged in window order).
        """
        # Imported here, not at module scope: repro.stream builds on this
        # module, so a top-level import would be circular.
        from repro.stream.engine import StreamingReconstructor

        with span("validate"):
            packets, vreport = self._prepare(trace)
        config = self.config
        started = time.perf_counter()
        with StreamingReconstructor(config, lateness_ms=math.inf) as engine:
            engine.ingest(packets, report=vreport)
            committed = engine.flush()
            stats = engine.stats()
            span_ms = engine.window_span_ms
        estimates: dict[ArrivalKey, float] = {}
        for window in committed:
            estimates.update(window.estimates)
        if span_ms is None:  # empty trace: the grid was never anchored
            span_ms = (
                config.window_span_ms
                if config.window_span_ms is not None
                else choose_window_span(packets, config.target_window_packets)
            )
            stats["window_span_ms"] = span_ms
        elapsed = time.perf_counter() - started

        # Assemble full arrival vectors (fall back to interval midpoints
        # for any unknown not covered by a kept window region). The
        # TraceIndex also re-checks id uniqueness for validation="off".
        with span("assemble"):
            full_index = TraceIndex(packets, omega_ms=config.omega_ms)
            arrival_times: dict[PacketId, list[float]] = {
                packet.packet_id: assemble_arrival_vector(
                    packet, estimates, config.omega_ms
                )
                for packet in full_index.packets
            }
        return DelayReconstruction(
            arrival_times=arrival_times,
            estimates=estimates,
            windows_used=len(committed),
            solve_time_s=elapsed,
            stats=stats,
        )

    # ------------------------------------------------------------------

    def bounds(
        self,
        trace,
        packet_ids: list[PacketId] | None = None,
    ) -> BoundReconstruction:
        """Lower/upper bounds via per-target sub-graph LPs (§IV.C)."""
        with span("validate"):
            packets, vreport = self._prepare(trace)
        config = self.config
        with span("window_build"):
            index = TraceIndex(packets, omega_ms=config.omega_ms)
            system = build_constraints(index, self._constraint_config(vreport))
        # Time per bound (Fig. 10(b)) counts the constraint graph's build.
        started = time.perf_counter()
        with span("solve"):
            if packet_ids is not None:
                wanted_ids = set(packet_ids)
                keys = [
                    key
                    for key in system.variables
                    if key.packet_id in wanted_ids
                ]
            else:
                keys = None
            computer = BoundComputer(
                system,
                BoundsConfig(
                    graph_cut_size=config.graph_cut_size,
                    use_blp=config.use_blp,
                ),
            )
            results: dict[ArrivalKey, BoundResult] = computer.bounds_for_all(
                keys
            )
        elapsed = time.perf_counter() - started
        degraded = system.stats.get("sum_rows_distrusted", 0) + system.stats.get(
            "sum_upper_degraded", 0
        )
        return BoundReconstruction(
            bounds=results,
            index=index,
            solve_time_s=elapsed,
            stats={
                **system.stats,
                **computer.stats,
                "quarantined_packets": vreport.num_quarantined,
                "degraded_constraints": degraded,
                "validation": vreport.as_dict(),
            },
        )
