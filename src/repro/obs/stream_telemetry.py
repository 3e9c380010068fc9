"""Observability counters of the streaming reconstruction engine.

The batch pipeline's solver telemetry (:mod:`repro.obs.solver_telemetry`)
describes individual window solves; this module adds the *lifecycle*
dimension the streaming engine introduces: how far the watermark lags the
newest arrival, how many sealed windows are waiting on the executor, how
long a window takes from seal to commit, and how aggressively committed
windows evict their packets. :func:`merge_stream_stats` folds the
counters into the flat ``stats`` dict next to the solver telemetry so
operators read one report.

:mod:`repro.stream` re-exports its public names. :meth:`StreamTelemetry
.publish` mirrors the running totals into the metrics registry as
``stream.*`` gauges — gauges, not counters, because totals are monotone
and re-publishing a total is idempotent under the gauge's max-merge,
so the engine can publish after every chunk without double counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.constants import INF
from repro.obs.registry import TIME_EDGES_S, MetricsRegistry, current_registry


@dataclass
class StreamTelemetry:
    """Running counters of one :class:`StreamingReconstructor`'s life."""

    #: packets accepted into the engine (after validation/dedup).
    ingested: int = 0
    #: packets rejected because their id was already ingested.
    duplicates: int = 0
    #: packets quarantined because every window that would have kept
    #: their estimate had already sealed when they arrived.
    late_quarantined: int = 0
    #: packets whose member windows have all committed and been released.
    evicted_packets: int = 0
    #: high-water mark of packets resident in the engine at once.
    peak_resident_packets: int = 0
    #: windows that entered the sealed state (kept packets present).
    windows_sealed: int = 0
    #: sealed windows skipped without a solve (members but no kept ids).
    windows_skipped: int = 0
    #: windows whose results have been committed.
    windows_committed: int = 0
    #: high-water mark of sealed-but-uncommitted windows (backlog).
    max_backlog: int = 0
    #: total / worst seal->commit latency over committed windows, seconds.
    seal_to_commit_total_s: float = 0.0
    seal_to_commit_max_s: float = 0.0
    #: newest sink-arrival time ingested (event time, ms).
    max_event_ms: float = -INF
    #: current watermark (max_event_ms - lateness allowance, ms).
    watermark_ms: float = -INF
    #: per-window seal->commit latencies, in commit order (seconds).
    seal_to_commit_s: list[float] = field(default_factory=list)

    @property
    def resident_packets(self) -> int:
        """Packets currently held by the engine (ingested minus evicted)."""
        return self.ingested - self.evicted_packets - self.late_quarantined

    @property
    def watermark_lag_ms(self) -> float:
        """How far behind the newest arrival the watermark sits."""
        if self.max_event_ms == -INF or self.watermark_ms == -INF:
            return INF
        return self.max_event_ms - self.watermark_ms

    @property
    def mean_seal_to_commit_s(self) -> float:
        if not self.windows_committed:
            return 0.0
        return self.seal_to_commit_total_s / self.windows_committed

    def record_commit(self, latency_s: float) -> None:
        self.windows_committed += 1
        self.seal_to_commit_total_s += latency_s
        self.seal_to_commit_max_s = max(self.seal_to_commit_max_s, latency_s)
        self.seal_to_commit_s.append(latency_s)
        current_registry().observe(
            "stream.seal_to_commit_seconds", latency_s, TIME_EDGES_S
        )

    def publish(self, registry: MetricsRegistry | None = None) -> None:
        """Mirror the running totals into ``stream.*`` gauges."""
        registry = registry or current_registry()
        registry.set_gauge("stream.ingested", self.ingested)
        registry.set_gauge("stream.duplicates", self.duplicates)
        registry.set_gauge("stream.late_quarantined", self.late_quarantined)
        registry.set_gauge("stream.evicted_packets", self.evicted_packets)
        registry.set_gauge("stream.resident_packets", self.resident_packets)
        registry.set_gauge(
            "stream.peak_resident_packets", self.peak_resident_packets
        )
        registry.set_gauge("stream.windows_sealed", self.windows_sealed)
        registry.set_gauge("stream.windows_skipped", self.windows_skipped)
        registry.set_gauge("stream.windows_committed", self.windows_committed)
        registry.set_gauge("stream.max_backlog", self.max_backlog)
        lag = self.watermark_lag_ms
        if lag != INF:
            registry.set_gauge("stream.watermark_lag_ms", lag)

    def as_dict(self) -> dict:
        return {
            "ingested": self.ingested,
            "duplicates": self.duplicates,
            "late_quarantined": self.late_quarantined,
            "evicted_packets": self.evicted_packets,
            "resident_packets": self.resident_packets,
            "peak_resident_packets": self.peak_resident_packets,
            "windows_sealed": self.windows_sealed,
            "windows_skipped": self.windows_skipped,
            "windows_committed": self.windows_committed,
            "max_backlog": self.max_backlog,
            "seal_to_commit_mean_s": self.mean_seal_to_commit_s,
            "seal_to_commit_max_s": self.seal_to_commit_max_s,
            "watermark_ms": self.watermark_ms,
            "watermark_lag_ms": self.watermark_lag_ms,
        }


def merge_stream_stats(stats: dict, telemetry: StreamTelemetry) -> dict:
    """Layer the streaming lifecycle counters into a run's ``stats``."""
    stats["streaming"] = telemetry.as_dict()
    telemetry.publish()
    return stats


def format_stream_report(telemetry: StreamTelemetry) -> str:
    """Operator-readable summary for the CLI ``stream`` subcommand."""
    lines = [
        f"packets ingested      : {telemetry.ingested}"
        f" ({telemetry.duplicates} duplicates dropped)",
        f"late quarantined      : {telemetry.late_quarantined}",
        f"windows committed     : {telemetry.windows_committed}"
        f" ({telemetry.windows_skipped} skipped)",
        f"evicted packets       : {telemetry.evicted_packets}"
        f" (resident {telemetry.resident_packets}, "
        f"peak {telemetry.peak_resident_packets})",
        f"peak backlog          : {telemetry.max_backlog} windows",
        "seal->commit latency  : "
        f"mean {1e3 * telemetry.mean_seal_to_commit_s:.1f} ms / "
        f"max {1e3 * telemetry.seal_to_commit_max_s:.1f} ms",
    ]
    if telemetry.watermark_lag_ms != INF:
        lines.append(
            f"watermark lag         : {telemetry.watermark_lag_ms:.0f} ms"
        )
    return "\n".join(lines)
