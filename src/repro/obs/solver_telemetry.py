"""Structured solver telemetry for the windowed estimation pipeline.

Each window solve produces one :class:`WindowTelemetry` record — which
solver ran, how it terminated, how many ADMM iterations it took, the
final residuals and the wall-clock time. :func:`summarize_telemetry`
folds a run's records into the flat ``stats`` dict exposed on
:class:`~repro.core.pipeline.DelayReconstruction`, and
:func:`format_telemetry_report` renders an operator-readable summary for
the CLI's ``--solver-stats`` path.

:mod:`repro.runtime` re-exports its public names. Registry publication
happens at solve time (:func:`repro.runtime.executor.solve_one_window`
feeds the ``window.*`` histograms through an isolated per-window
registry), so :func:`summarize_telemetry` stays a pure fold — safe to
call repeatedly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.obs.registry import (
    COUNT_EDGES,
    ITERATION_EDGES,
    RESIDUAL_EDGES,
    TIME_EDGES_S,
    MetricsRegistry,
)

@dataclass(frozen=True)
class WindowTelemetry:
    """Observability record of one window solve."""

    #: position of the window in the planned sequence (0-based).
    window_index: int
    #: packets whose constraints entered this window's system.
    num_packets: int
    #: unknown arrival times solved for.
    num_unknowns: int
    #: estimates kept from this window (keep-region packets).
    num_kept: int
    #: "linearized" (Eq. (8) QP), "sdr" (lifted SDP), "fallback"
    #: (SolverError -> interval midpoints) or "empty" (no unknowns).
    solver: str
    #: solver termination status value (e.g. "optimal"), or "fallback".
    status: str
    #: ADMM iterations performed (0 when nothing iterated).
    iterations: int
    #: final primal/dual residuals (inf-norm; NaN when not solved).
    primal_residual: float
    dual_residual: float
    #: wall-clock seconds spent solving this window.
    solve_time_s: float
    #: degradation-ladder rung that produced the estimates: 0 = full
    #: system, then one rung per dropped constraint family
    #: (drop_sum_upper, drop_fifo, order_only), highest = midpoints.
    relax_rung: int = 0
    #: human-readable name of the rung ("full" when nothing was relaxed).
    relax_stage: str = "full"
    #: solve attempts made on this window (1 = first try succeeded).
    solve_attempts: int = 1
    #: estimator backend that produced the estimates (registry name).
    backend: str = "domo-qp"

    def as_dict(self) -> dict:
        return asdict(self)

    def publish(self, registry: MetricsRegistry) -> None:
        """Feed this record into a metrics registry (once per window)."""
        registry.inc("pipeline.windows_solved")
        registry.inc(f"pipeline.windows.{self.solver}")
        registry.inc(f"pipeline.backend.{self.backend}")
        registry.observe(
            "window.solve_seconds", self.solve_time_s, TIME_EDGES_S
        )
        registry.observe(
            "window.unknowns", float(self.num_unknowns), COUNT_EDGES
        )
        if self.iterations:
            registry.observe(
                "window.iterations", float(self.iterations), ITERATION_EDGES
            )
        for name, value in (
            ("window.primal_residual", self.primal_residual),
            ("window.dual_residual", self.dual_residual),
        ):
            if value == value:  # skip NaN
                registry.observe(name, value, RESIDUAL_EDGES)
        if self.relax_rung > 0:
            registry.inc("pipeline.relaxed_windows")
            registry.inc(f"pipeline.relax_rung.{self.relax_stage}")
        if self.solve_attempts > 1:
            registry.inc("pipeline.relax_retries", self.solve_attempts - 1)


def record_solver_result(prefix: str, result):
    """Publish one low-level solve (QP/SDP/LP) into the current registry.

    ``result`` is any :class:`~repro.optim.result.SolverResult`-shaped
    object; publication is pure observation, so returning the result
    unchanged lets call sites instrument a return expression in place.
    """
    from repro.obs.registry import current_registry

    registry = current_registry()
    status = getattr(getattr(result, "status", None), "value", "unknown")
    registry.inc(f"{prefix}.solves")
    registry.inc(f"{prefix}.status.{status}")
    registry.observe(
        f"{prefix}.solve_seconds",
        getattr(result, "solve_time_s", 0.0),
        TIME_EDGES_S,
    )
    iterations = getattr(result, "iterations", 0)
    if iterations:
        registry.observe(
            f"{prefix}.iterations", float(iterations), ITERATION_EDGES
        )
    for field_name in ("primal_residual", "dual_residual"):
        value = getattr(result, field_name, float("nan"))
        if value == value and value != float("inf"):
            registry.observe(f"{prefix}.{field_name}", value, RESIDUAL_EDGES)
    return result


def summarize_telemetry(records: list[WindowTelemetry]) -> dict:
    """Aggregate per-window records into the pipeline's ``stats`` dict.

    Keeps the pre-existing keys (``sdr_windows``, ``linearized_windows``,
    ``failed_windows``) so callers written against the serial pipeline
    keep working, and layers the new observability totals on top.
    """
    stats = {
        "windows": len(records),
        "sdr_windows": 0,
        "linearized_windows": 0,
        "failed_windows": 0,
        "empty_windows": 0,
        "total_unknowns": 0,
        "total_iterations": 0,
        "window_solve_time_s": 0.0,
        "max_window_solve_time_s": 0.0,
        "max_primal_residual": 0.0,
        "max_dual_residual": 0.0,
        "status_counts": {},
        "relaxed_windows": 0,
        "relax_retries": 0,
        "relax_rung_histogram": {},
        "backend_windows": {},
    }
    for record in records:
        key = {
            "linearized": "linearized_windows",
            "sdr": "sdr_windows",
            "fallback": "failed_windows",
            "empty": "empty_windows",
        }.get(record.solver)
        if key is not None:
            stats[key] += 1
        stats["total_unknowns"] += record.num_unknowns
        stats["total_iterations"] += record.iterations
        stats["window_solve_time_s"] += record.solve_time_s
        stats["max_window_solve_time_s"] = max(
            stats["max_window_solve_time_s"], record.solve_time_s
        )
        for field in ("primal_residual", "dual_residual"):
            value = getattr(record, field)
            if value == value:  # skip NaN
                stats[f"max_{field}"] = max(stats[f"max_{field}"], value)
        stats["status_counts"][record.status] = (
            stats["status_counts"].get(record.status, 0) + 1
        )
        if record.relax_rung > 0:
            stats["relaxed_windows"] += 1
            stats["relax_rung_histogram"][record.relax_stage] = (
                stats["relax_rung_histogram"].get(record.relax_stage, 0) + 1
            )
        stats["relax_retries"] += max(0, record.solve_attempts - 1)
        stats["backend_windows"][record.backend] = (
            stats["backend_windows"].get(record.backend, 0) + 1
        )
    stats["window_telemetry"] = [record.as_dict() for record in records]
    return stats


def format_telemetry_report(stats: dict) -> str:
    """Human-readable multi-line summary of a run's solver telemetry."""
    lines = [
        f"windows solved       : {stats.get('windows', 0)}",
        f"  linearized / sdr   : {stats.get('linearized_windows', 0)}"
        f" / {stats.get('sdr_windows', 0)}",
        f"  failed (fallback)  : {stats.get('failed_windows', 0)}",
        f"execution mode       : {stats.get('execution_mode', 'serial')}"
        f" (workers: {stats.get('workers', 1)})",
        f"total unknowns       : {stats.get('total_unknowns', 0)}",
        f"total ADMM iterations: {stats.get('total_iterations', 0)}",
        f"window solve time    : {stats.get('window_solve_time_s', 0.0):.3f} s"
        f" (slowest window "
        f"{stats.get('max_window_solve_time_s', 0.0):.3f} s)",
        f"max primal residual  : {stats.get('max_primal_residual', 0.0):.3g}",
        f"max dual residual    : {stats.get('max_dual_residual', 0.0):.3g}",
    ]
    backends = stats.get("backend_windows", {})
    if backends:
        rendered = ", ".join(
            f"{name}: {count}" for name, count in sorted(backends.items())
        )
        lines.append(f"backend windows      : {rendered}")
    counts = stats.get("status_counts", {})
    if counts:
        rendered = ", ".join(
            f"{status}: {count}" for status, count in sorted(counts.items())
        )
        lines.append(f"status tally         : {rendered}")
    relaxed = stats.get("relaxed_windows", 0)
    if relaxed:
        histogram = stats.get("relax_rung_histogram", {})
        rendered = ", ".join(
            f"{stage}: {count}" for stage, count in sorted(histogram.items())
        )
        lines.append(f"relaxed windows      : {relaxed} ({rendered})")
    quarantined = stats.get("quarantined_packets", 0)
    degraded = stats.get("degraded_constraints", 0)
    if quarantined or degraded:
        lines.append(
            f"degradation          : {quarantined} packets quarantined, "
            f"{degraded} sum constraints degraded"
        )
    return "\n".join(lines)
