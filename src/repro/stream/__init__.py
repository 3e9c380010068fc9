"""Streaming reconstruction: ingest -> seal -> solve -> commit.

The online counterpart of :class:`~repro.core.pipeline.DomoReconstructor`
(which itself now runs as "ingest everything, then flush" on this
engine). See :mod:`repro.stream.engine` for the window state machine and
watermark semantics.
"""

from repro.obs.stream_telemetry import (
    StreamTelemetry,
    format_stream_report,
    merge_stream_stats,
)
from repro.stream.engine import (
    CommittedWindow,
    StreamingReconstructor,
    WindowState,
)

__all__ = [
    "CommittedWindow",
    "StreamingReconstructor",
    "StreamTelemetry",
    "WindowState",
    "format_stream_report",
    "merge_stream_stats",
]
