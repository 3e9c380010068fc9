"""The canonical machine-readable run report.

Every instrumented entry point (``domo estimate/stream/faults``, the
benchmark harness) serializes its observability state to **one** JSON
shape, ``domo.run_report/1``::

    {
      "schema": "domo.run_report/1",
      "command": "stream",                  # what ran
      "argv": ["--lateness-ms", "2000"],    # how it was invoked
      "env": {"python": "...", "platform": "...", "cpu_count": 8, ...},
      "config": {...},                      # JSON-safe DomoConfig dump
      "wall_time_s": 12.3,                  # the root span's duration
      "span_coverage": 0.98,                # fraction of wall time inside
                                            # the root's direct children
      "spans": [{"path": "run/ingest", "count": 31, "total_s": ...,
                 "min_s": ..., "max_s": ..., "errors": 0}, ...],
      "metrics": {"counters": {...}, "gauges": {...},
                  "histograms": {name: {"edges": [...], "counts": [...],
                                        "count": n, "sum": f,
                                        "min": f, "max": f}}},
      "stats": {...}                        # the run's stats dict
    }

Invariants the validator enforces:

* top-level keys and their types as above (``config``/``stats`` may be
  empty objects);
* every histogram has ``len(counts) == len(edges) + 1`` and
  ``sum(counts) == count``;
* span paths are slash-joined, each with nonnegative count/total;
* all numbers are finite — non-finite floats are replaced by ``None``
  at serialization time (``sanitize_json``), never emitted as the
  nonstandard ``Infinity``/``NaN`` tokens.

The report deliberately contains **no timestamps and no randomness**
beyond measured durations: two runs of the same workload differ only in
timing fields, which is what makes the perf trajectory diffable.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
from dataclasses import dataclass, field, is_dataclass, asdict

from repro.obs.registry import MetricsRegistry, current_registry

__all__ = [
    "RUN_REPORT_SCHEMA",
    "RunReport",
    "build_run_report",
    "collect_env",
    "format_run_report",
    "sanitize_json",
    "validate_report",
    "write_run_report",
]

RUN_REPORT_SCHEMA = "domo.run_report/1"


def collect_env() -> dict:
    """Machine context a perf number is meaningless without."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "repro_full": bool(int(os.environ.get("REPRO_FULL", "0") or "0")),
    }


def sanitize_json(value):
    """Recursively convert ``value`` into strict-JSON-safe primitives.

    Non-finite floats become ``None`` (strict JSON has no Infinity/NaN),
    dataclasses become dicts, sets/frozensets become sorted lists, and
    non-string dict keys are stringified.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return sanitize_json(asdict(value))
    if isinstance(value, dict):
        return {str(key): sanitize_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_json(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(sanitize_json(item) for item in value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, int) or isinstance(value, str):
        return value
    return str(value)


@dataclass
class RunReport:
    """In-memory form of one ``domo.run_report/1`` document."""

    command: str
    argv: list[str] = field(default_factory=list)
    env: dict = field(default_factory=collect_env)
    config: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    span_coverage: float = 0.0

    def to_dict(self) -> dict:
        return sanitize_json(
            {
                "schema": RUN_REPORT_SCHEMA,
                "command": self.command,
                "argv": list(self.argv),
                "env": self.env,
                "config": self.config,
                "wall_time_s": self.wall_time_s,
                "span_coverage": self.span_coverage,
                "spans": self.spans,
                "metrics": self.metrics,
                "stats": self.stats,
            }
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            self.to_dict(), indent=indent, sort_keys=False, allow_nan=False
        )

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        problems = validate_report(data)
        if problems:
            raise ValueError(
                "not a valid run report: " + "; ".join(problems[:5])
            )
        return cls(
            command=data["command"],
            argv=list(data.get("argv", [])),
            env=dict(data.get("env", {})),
            config=dict(data.get("config", {})),
            spans=[dict(s) for s in data.get("spans", [])],
            metrics=dict(data.get("metrics", {})),
            stats=dict(data.get("stats", {})),
            wall_time_s=data.get("wall_time_s", 0.0) or 0.0,
            span_coverage=data.get("span_coverage", 0.0) or 0.0,
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))


# ----------------------------------------------------------------------
# Span coverage
# ----------------------------------------------------------------------


def _span_list(registry: MetricsRegistry) -> list[dict]:
    return [
        {"path": path, **stats.as_dict()}
        for path, stats in registry.span_paths().items()
    ]


def span_coverage(spans: list[dict], root: str | None = None) -> tuple[float, float]:
    """(wall_time_s, coverage) of the stage trace.

    ``wall_time_s`` is the total of the root span (the longest top-level
    path when not named); ``coverage`` is the fraction of that wall time
    spent inside the root's *direct* children — the "did we instrument
    every stage" number the acceptance gate checks.
    """
    by_path = {entry["path"]: entry for entry in spans}
    roots = [p for p in by_path if "/" not in p]
    if root is None:
        root = max(roots, key=lambda p: by_path[p]["total_s"], default=None)
    if root is None or root not in by_path:
        return 0.0, 0.0
    wall = by_path[root]["total_s"]
    prefix = root + "/"
    children = sum(
        entry["total_s"]
        for path, entry in by_path.items()
        if path.startswith(prefix) and "/" not in path[len(prefix):]
    )
    if wall <= 0.0:
        return wall, 0.0
    return wall, min(1.0, children / wall)


def build_run_report(
    command: str,
    *,
    argv: list[str] | None = None,
    config=None,
    stats: dict | None = None,
    registry: MetricsRegistry | None = None,
    root_span: str = "run",
) -> RunReport:
    """Assemble a :class:`RunReport` from the registry's current state."""
    registry = registry or current_registry()
    snapshot = registry.snapshot()
    spans = [
        {"path": path, **data}
        for path, data in snapshot.pop("spans", {}).items()
    ]
    wall, coverage = span_coverage(spans, root=root_span)
    return RunReport(
        command=command,
        argv=list(argv or []),
        config=sanitize_json(config) if config is not None else {},
        spans=spans,
        metrics=snapshot,
        stats=sanitize_json(stats or {}),
        wall_time_s=wall,
        span_coverage=coverage,
    )


def write_run_report(path: str, report: RunReport) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
        handle.write("\n")


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------

_TOP_LEVEL = {
    "schema": str,
    "command": str,
    "argv": list,
    "env": dict,
    "config": dict,
    "wall_time_s": (int, float),
    "span_coverage": (int, float),
    "spans": list,
    "metrics": dict,
    "stats": dict,
}


def validate_report(data) -> list[str]:
    """Problems that make ``data`` not a ``domo.run_report/1`` document."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return ["report is not a JSON object"]
    if data.get("schema") != RUN_REPORT_SCHEMA:
        problems.append(
            f"schema is {data.get('schema')!r}, expected {RUN_REPORT_SCHEMA!r}"
        )
    for key, kind in _TOP_LEVEL.items():
        if key not in data:
            problems.append(f"missing key {key!r}")
        elif not isinstance(data[key], kind):
            problems.append(
                f"{key!r} has type {type(data[key]).__name__}"
            )
    for entry in data.get("spans", []) if isinstance(data.get("spans"), list) else []:
        if not isinstance(entry, dict) or "path" not in entry:
            problems.append(f"span entry without a path: {entry!r}")
            continue
        for key in ("count", "total_s", "min_s", "max_s", "errors"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or value != value:
                problems.append(f"span {entry['path']!r} has bad {key!r}")
            elif key in ("count", "total_s", "errors") and value < 0:
                problems.append(f"span {entry['path']!r} has negative {key!r}")
    metrics = data.get("metrics", {})
    if isinstance(metrics, dict):
        for name, hist in metrics.get("histograms", {}).items():
            if not isinstance(hist, dict):
                problems.append(f"histogram {name!r} is not an object")
                continue
            edges = hist.get("edges", [])
            counts = hist.get("counts", [])
            if len(counts) != len(edges) + 1:
                problems.append(
                    f"histogram {name!r}: {len(counts)} buckets for "
                    f"{len(edges)} edges"
                )
            elif sum(counts) != hist.get("count", -1):
                problems.append(
                    f"histogram {name!r}: bucket sum != count"
                )
        for name, value in metrics.get("counters", {}).items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"counter {name!r} is not a nonneg integer")
    coverage = data.get("span_coverage")
    if isinstance(coverage, (int, float)) and not 0.0 <= coverage <= 1.0:
        problems.append(f"span_coverage {coverage} outside [0, 1]")
    return problems


# ----------------------------------------------------------------------
# Pretty printer (the `domo report` surface)
# ----------------------------------------------------------------------


def _tree_order(spans: list[dict]) -> list[dict]:
    """Spans in parent-first depth-first order.

    Recorded order is span-*exit* order (children finish before their
    parents), so rendering needs a reordering: keep siblings in recorded
    order but emit each parent before its subtree.
    """
    children: dict[str, list[dict]] = {}
    for entry in spans:
        path = entry.get("path", "")
        parent = path.rsplit("/", 1)[0] if "/" in path else ""
        children.setdefault(parent, []).append(entry)
    ordered: list[dict] = []

    def emit(parent: str) -> None:
        for entry in children.get(parent, []):
            ordered.append(entry)
            emit(entry["path"])

    emit("")
    return ordered


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f} s"
    return f"{1e3 * seconds:8.2f} ms"


def format_run_report(data: dict) -> str:
    """Operator-readable rendering of a run report dict."""
    lines = [
        f"run report: {data.get('command', '?')} "
        f"({data.get('schema', 'unversioned')})",
    ]
    env = data.get("env", {})
    if env:
        lines.append(
            f"  env: python {env.get('python', '?')} on "
            f"{env.get('platform', '?')}/{env.get('machine', '?')}, "
            f"{env.get('cpu_count', '?')} cpus"
            + (", REPRO_FULL" if env.get("repro_full") else "")
        )
    wall = data.get("wall_time_s", 0.0) or 0.0
    coverage = data.get("span_coverage", 0.0) or 0.0
    lines.append(
        f"  wall time: {wall:.3f} s, stage coverage {100 * coverage:.1f}%"
    )

    spans = data.get("spans", [])
    if spans:
        lines.append("")
        lines.append("stage trace")
        for entry in _tree_order(spans):
            path = entry["path"]
            depth = path.count("/")
            name = path.rsplit("/", 1)[-1]
            total = entry.get("total_s", 0.0)
            share = f"{100 * total / wall:5.1f}%" if wall > 0 else "     -"
            errors = entry.get("errors", 0)
            lines.append(
                f"  {'  ' * depth}{name:<{max(1, 24 - 2 * depth)}}"
                f"{_format_seconds(total)}  x{entry.get('count', 0):<6d}"
                f"{share}" + (f"  ({errors} errors)" if errors else "")
            )

    metrics = data.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<36}{value:>12}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("")
        lines.append("gauges (last / min / max)")
        for name, g in sorted(gauges.items()):
            lines.append(
                f"  {name:<36}{g.get('last', 0):>12.3f}"
                f"{g.get('min', 0):>12.3f}{g.get('max', 0):>12.3f}"
            )
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / max)")
        for name, hist in sorted(histograms.items()):
            count = hist.get("count", 0)
            mean = (hist.get("sum", 0.0) / count) if count else 0.0
            hmax = hist.get("max", 0.0)
            hmax = hmax if isinstance(hmax, (int, float)) else 0.0
            lines.append(
                f"  {name:<36}{count:>10}{mean:>14.4g}{hmax:>14.4g}"
            )
    return "\n".join(lines)
