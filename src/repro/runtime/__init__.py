"""Execution runtime: parallel window solving and solver telemetry.

The estimation pipeline's per-window subproblems (paper §IV.B) are
independent; this package schedules them — serially or across a process
pool — and records structured per-window solver telemetry:

* :mod:`repro.runtime.executor` — :func:`execute_windows`, the
  deterministic fan-out engine with serial fallback;
* :class:`WindowTelemetry` records and the aggregation/reporting
  helpers behind ``DelayReconstruction.stats``, re-exported from
  :mod:`repro.obs.solver_telemetry`.
"""

from repro.obs.solver_telemetry import (
    WindowTelemetry,
    format_telemetry_report,
    summarize_telemetry,
)
from repro.runtime.executor import (
    ExecutionReport,
    WindowResult,
    WindowSolveSpec,
    execute_windows,
    resolve_worker_count,
    solve_one_window,
)

__all__ = [
    "ExecutionReport",
    "WindowResult",
    "WindowSolveSpec",
    "WindowTelemetry",
    "execute_windows",
    "format_telemetry_report",
    "resolve_worker_count",
    "solve_one_window",
    "summarize_telemetry",
]
