"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every metric a reconstruction run
emits. Three primitives cover the pipeline's needs:

* **counters** — monotone event tallies (`stream.ingested`,
  `executor.pool_degraded`);
* **gauges** — last/min/max of a sampled level (`executor.in_flight`,
  `stream.backlog`);
* **histograms** — distributions over *fixed* bucket edges
  (`qp.iterations`, `window.solve_seconds`). Edges are declared
  constants, never derived from observed data or wall clocks, so two
  runs of the same workload bucket identically and snapshots from
  parallel workers merge deterministically.

Merging is the core contract: :meth:`MetricsRegistry.merge` folds a
snapshot (e.g. shipped back from a process-pool worker) into the
registry, and the result is independent of merge order — counters and
histogram buckets add, gauges combine via min/max (``last`` keeps the
largest value seen so the merged gauge is order-independent).

A module-level *current registry* makes instrumentation call sites
one-liners (:func:`inc`, :func:`set_gauge`, :func:`observe`);
:func:`isolated_registry` swaps in a fresh registry for the duration of
a ``with`` block (used by the CLI to scope a run report, by the
executor to capture per-window worker metrics, and by tests), and
:func:`disabled_metrics` installs a no-op registry so the
"metrics off" path is a real code path rather than a convention.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "COUNT_EDGES",
    "ITERATION_EDGES",
    "RESIDUAL_EDGES",
    "TIME_EDGES_S",
    "current_registry",
    "disabled_metrics",
    "inc",
    "isolated_registry",
    "observe",
    "registry_scope",
    "set_gauge",
]

#: wall-clock durations, seconds (spans, window/QP solve times).
TIME_EDGES_S = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0,
)
#: ADMM iteration counts (solver caps sit at 3000-4000).
ITERATION_EDGES = (10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0)
#: primal/dual residuals (tolerances are ~1e-5).
RESIDUAL_EDGES = (1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)
#: generic small-count distributions (unknowns per window, queue depth).
COUNT_EDGES = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


@dataclass
class Counter:
    """Monotone event count."""

    value: int = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def as_dict(self) -> int:
        return self.value


@dataclass
class Gauge:
    """Last/min/max of a sampled level.

    ``last`` is defined as the *largest* value ever set so that merging
    two gauges is commutative; for levels like queue depth the
    interesting number is the high-water mark anyway, and ``min``/``max``
    carry the envelope.
    """

    last: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: int = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.samples += 1
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.last = max(self.last, value) if self.samples > 1 else value

    def as_dict(self) -> dict:
        return {
            "last": self.last,
            "min": self.min,
            "max": self.max,
            "samples": self.samples,
        }


@dataclass
class Histogram:
    """Distribution over fixed, strictly increasing bucket edges.

    ``counts[i]`` tallies observations ``<= edges[i]``; the final slot
    counts overflows. ``sum``/``min``/``max`` ride along so means and
    envelopes survive serialization without the raw samples.
    """

    edges: tuple[float, ...]
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        self.edges = tuple(float(e) for e in self.edges)
        if not self.edges or any(
            b <= a for a, b in zip(self.edges, self.edges[1:])
        ):
            raise ValueError(
                f"histogram edges must be strictly increasing, got {self.edges}"
            )
        if not self.counts:
            self.counts = [0] * (len(self.edges) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        if value != value:  # NaN observations carry no information
            return
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


@dataclass
class SpanStats:
    """Aggregated timings of one span path (see :mod:`repro.obs.spans`)."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = float("-inf")
    errors: int = 0

    def record(self, duration_s: float, error: bool = False) -> None:
        self.count += 1
        self.total_s += duration_s
        self.min_s = min(self.min_s, duration_s)
        self.max_s = max(self.max_s, duration_s)
        if error:
            self.errors += 1

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
            "errors": self.errors,
        }


class MetricsRegistry:
    """One process's (or one run's) metrics, merge-safe and serializable."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: dict[str, SpanStats] = {}

    # -- primitives ----------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
            return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
            return gauge

    def histogram(self, name: str, edges: tuple[float, ...]) -> Histogram:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram(edges=edges)
            elif hist.edges != tuple(edges):
                raise ValueError(
                    f"histogram {name!r} already registered with edges "
                    f"{hist.edges}, got {tuple(edges)}"
                )
            return hist

    # -- convenience write paths (no-ops when disabled) ----------------

    def inc(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float, edges: tuple[float, ...]) -> None:
        if self.enabled:
            self.histogram(name, edges).observe(value)

    def record_span(self, path: str, duration_s: float, error: bool) -> None:
        if not self.enabled:
            return
        with self._lock:
            stats = self._spans.get(path)
            if stats is None:
                stats = self._spans[path] = SpanStats()
        stats.record(duration_s, error)

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict copy of everything (picklable, JSON-safe shapes)."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.as_dict()
                    for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: hist.as_dict()
                    for name, hist in sorted(self._histograms.items())
                },
                "spans": {
                    path: stats.as_dict()
                    for path, stats in self._spans.items()
                },
            }

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` into this registry (order-independent)."""
        if not snapshot or not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if data.get("samples", 0):
                fresh = gauge.samples == 0
                gauge.samples += data["samples"]
                gauge.min = min(gauge.min, data["min"])
                gauge.max = max(gauge.max, data["max"])
                gauge.last = (
                    data["last"] if fresh else max(gauge.last, data["last"])
                )
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name, tuple(data["edges"]))
            hist.counts = [
                a + b for a, b in zip(hist.counts, data["counts"])
            ]
            hist.count += data["count"]
            hist.sum += data["sum"]
            hist.min = min(hist.min, data["min"])
            hist.max = max(hist.max, data["max"])
        for path, data in snapshot.get("spans", {}).items():
            with self._lock:
                stats = self._spans.get(path)
                if stats is None:
                    stats = self._spans[path] = SpanStats()
            stats.count += data["count"]
            stats.total_s += data["total_s"]
            stats.min_s = min(stats.min_s, data["min_s"])
            stats.max_s = max(stats.max_s, data["max_s"])
            stats.errors += data["errors"]

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()

    def span_paths(self) -> dict[str, SpanStats]:
        """Span aggregates in first-seen (stage) order."""
        return dict(self._spans)


# ----------------------------------------------------------------------
# The current registry (module-level, swap-scoped)
# ----------------------------------------------------------------------

_default_registry = MetricsRegistry()
_current = threading.local()


def current_registry() -> MetricsRegistry:
    """The registry instrumentation writes to right now."""
    return getattr(_current, "registry", None) or _default_registry


class _RegistryScope:
    """``with`` scope that installs ``registry`` as the current one."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = getattr(_current, "registry", None)
        _current.registry = self.registry
        return self.registry

    def __exit__(self, *exc_info) -> None:
        _current.registry = self._previous


def isolated_registry(enabled: bool = True) -> _RegistryScope:
    """Scope a fresh registry: ``with isolated_registry() as reg: ...``."""
    return _RegistryScope(MetricsRegistry(enabled=enabled))


def registry_scope(registry: MetricsRegistry) -> _RegistryScope:
    """Scope an *existing* registry as the current one.

    The multi-session form of :func:`isolated_registry`: the serve layer
    keeps one long-lived registry per stream session and re-installs it
    around every engine call (which may run on a different worker thread
    each time — the current registry is thread-local), then merges the
    session registries into the server registry at drain time.
    """
    return _RegistryScope(registry)


def disabled_metrics() -> _RegistryScope:
    """Scope in which every metric write is a no-op."""
    return _RegistryScope(MetricsRegistry(enabled=False))


def inc(name: str, amount: int = 1) -> None:
    current_registry().inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    current_registry().set_gauge(name, value)


def observe(name: str, value: float, edges: tuple[float, ...]) -> None:
    current_registry().observe(name, value, edges)
