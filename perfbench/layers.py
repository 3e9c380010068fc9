"""Per-layer metrics, computed from the spans of a traced run.

Every metric is reported on every workload: a layer a workload never
calls reads 0 there. Times are self times in seconds (per pass for
``batch-estimate`` and ``bounds-sample``, over the whole replay for
``serve-live``), so a layer's time never includes the layers it calls.

Which end-to-end metric each layer should move, on which workload, with
the layer's share of the work at seed 7 on a 2-core host (share of a
pass for batch and bounds; seconds per 30 s replay for serve-live, where
the traced server spends about 5.5 s of CPU on ~1,800 records):

==============  =================================  ==========================
layer           should move                        on (share at seed 7)
==============  =================================  ==========================
io              throughput_per_s                   batch (2%)
validate        throughput_per_s                   batch (<1%)
window_build    throughput_per_s; r2r_p50_ms       batch (68%), bounds (20%),
                                                   serve (0.39 s)
solve           r2r_p50/p90_ms;                    serve (1.7 s wall),
                throughput_per_s                   batch (27%)
index, assemble throughput_per_s                   batch, bounds (<1%)
stream          peak_rss_mb, r2r_p90_ms            serve
serve           throughput_per_s, r2r_p50_ms       serve: replies 0.90 s,
                                                   RESULTS 0.67 s, reader
                                                   loop 0.65 s, ingest
                                                   0.49 s, thread handoff
                                                   0.30 s, parse 0.23 s,
                                                   queue pump 0.18 s,
                                                   socket reads 0.18 s
                throughput_per_s (wakeups)         serve: selector wait
                                                   0.24 s CPU; loop's own
                                                   and unnamed 0.34 s CPU
durability      throughput_per_s; r2r_p90_ms       serve: WAL 0.43 s
bounds          throughput_per_s                   bounds: LP 41%, extract
                                                   16%, per-target 13%,
                                                   graph 8%
loadgen         none: r2r_p50/p90_ms are its own   serve
                readings; lag shows whether they
                are valid
==============  =================================  ==========================

``r2r_p50_ms`` and ``r2r_p90_ms`` are ``loadgen.r2r_p50_ms`` and
``loadgen.r2r_p90_ms``: the record-to-result latency of the untraced
replay, reported here without a bound because the shared host's steal
spreads them past any bound (see ``perfbench/README.md``).

On serve-live, ``trace.coverage`` is the share of the server's CPU
inside spans that name a layer, and ``serve.loop_cpu_s`` is the rest:
the event loop's own work between callbacks, callbacks that
:data:`~perfbench.tracing.SERVE_CALLBACKS` does not name, and thread
overhead outside every span.
"""

from __future__ import annotations

import numpy

from perfbench.common import median
from perfbench.tracing import self_cpu, self_times

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("io.load_s", "s"),
    ("validate.s", "s"),
    ("validate.quarantined", "count"),
    ("window_build.s", "s"),
    ("window_build.calls", "count"),
    ("window_build.rows", "count"),
    ("window_build.fifo_pairs", "count"),
    ("window_build.unknowns", "count"),
    ("window_build.ms_per_call_p50", "ms"),
    ("window_build.fifo_pairs_p50", "count"),
    ("solve.s", "s"),
    ("solve.windows", "count"),
    ("solve.ms_per_window_p50", "ms"),
    ("solve.qp_iterations", "count"),
    ("solve.max_primal_residual", "ms"),
    ("solve.ladder_rescues", "count"),
    ("solve.midpoint_fallbacks", "count"),
    ("index.s", "s"),
    ("assemble.s", "s"),
    ("stream.windows_committed", "count"),
    ("stream.window_span_ms", "ms"),
    ("stream.peak_resident_packets", "count"),
    ("stream.max_backlog", "count"),
    ("stream.late_quarantined", "count"),
    ("serve.parse_s", "s"),
    ("serve.lines", "count"),
    ("serve.ingest_s", "s"),
    ("serve.ingest_batches", "count"),
    ("serve.batch_records_p50", "count"),
    ("serve.loop_cpu_s", "s"),
    ("serve.select_cpu_s", "s"),
    ("serve.read_s", "s"),
    ("serve.connection_s", "s"),
    ("serve.pump_s", "s"),
    ("serve.handoff_s", "s"),
    ("serve.enqueue_s", "s"),
    ("serve.reply_s", "s"),
    ("serve.results_s", "s"),
    ("serve.results_calls", "count"),
    ("serve.results_bytes", "bytes"),
    ("serve.records_dropped", "count"),
    ("serve.batch_mae_ms", "ms"),
    ("durability.wal_append_s", "s"),
    ("durability.wal_appends", "count"),
    ("durability.wal_bytes", "bytes"),
    ("durability.fsyncs", "count"),
    ("durability.snapshot_s", "s"),
    ("durability.snapshots", "count"),
    ("bounds.graph_s", "s"),
    ("bounds.solve_s", "s"),
    ("bounds.extract_s", "s"),
    ("bounds.extractions", "count"),
    ("bounds.subgraph_vertices_p50", "count"),
    ("bounds.lp_s", "s"),
    ("bounds.lps", "count"),
    ("bounds.lp_relaxed", "count"),
    ("bounds.interval_fallbacks", "count"),
    ("loadgen.lag_p90_ms", "ms"),
    ("loadgen.records_sent", "count"),
    ("loadgen.polls", "count"),
    ("loadgen.r2r_windows", "count"),
    ("loadgen.r2r_p50_ms", "ms"),
    ("loadgen.r2r_p90_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]



def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Self times and counts of every wrapped layer in ``spans``."""
    own = self_times(spans)
    own_cpu = self_cpu(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(name, where=None) -> float:
        return sum(
            own[s["id"]]
            for s in by_name.get(name, [])
            if where is None or where(s["attrs"] or {})
        )

    def attr_values(name, key) -> list:
        return [
            (s["attrs"] or {}).get(key, 0) for s in by_name.get(name, [])
        ]

    def durations_ms(name) -> list[float]:
        return [1000.0 * (s["end"] - s["start"]) for s in by_name.get(name, [])]

    builds = by_name.get("window_build", [])
    solves = by_name.get("solve", [])
    rungs = attr_values("solve", "relax_rung")
    midpoints = attr_values("solve", "midpoints")
    residuals = [
        r for r in attr_values("solve", "primal_residual") if r == r
    ]
    fsyncs = attr_values("durability.sync", "fsync")
    return {
        "io.load_s": total("io.load"),
        "validate.s": total("validate"),
        "validate.quarantined": sum(attr_values("validate", "quarantined")),
        "window_build.s": total("window_build"),
        "window_build.calls": len(builds),
        "window_build.rows": sum(attr_values("window_build", "rows")),
        "window_build.fifo_pairs": sum(attr_values("window_build", "fifo_pairs")),
        "window_build.unknowns": sum(attr_values("window_build", "unknowns")),
        "window_build.ms_per_call_p50": (
            median(durations_ms("window_build")) if builds else 0.0
        ),
        "window_build.fifo_pairs_p50": (
            median(attr_values("window_build", "fifo_pairs")) if builds else 0.0
        ),
        "solve.s": total("solve"),
        "solve.windows": len(solves),
        "solve.ms_per_window_p50": (
            median(durations_ms("solve")) if solves else 0.0
        ),
        "solve.qp_iterations": sum(attr_values("solve", "iterations")),
        "solve.max_primal_residual": max(residuals, default=0.0),
        "solve.ladder_rescues": sum(
            1 for rung, mid in zip(rungs, midpoints) if rung > 0 and not mid
        ),
        "solve.midpoint_fallbacks": sum(midpoints),
        "index.s": total("index"),
        "assemble.s": total("assemble"),
        "serve.parse_s": total("serve.parse"),
        "serve.lines": len(by_name.get("serve.parse", [])),
        "serve.ingest_s": total("serve.ingest"),
        "serve.ingest_batches": len(by_name.get("serve.ingest", [])),
        "serve.batch_records_p50": (
            median(attr_values("serve.ingest", "records"))
            if by_name.get("serve.ingest")
            else 0.0
        ),
        "serve.select_cpu_s": sum(
            own_cpu[s["id"]] for s in by_name.get("serve.select", [])
        ),
        "serve.read_s": total("serve.read"),
        "serve.connection_s": total("serve.connection"),
        "serve.pump_s": total("serve.pump"),
        "serve.handoff_s": total("serve.handoff"),
        "serve.enqueue_s": total("serve.enqueue"),
        "serve.reply_s": total("serve.reply")
        + total("serve.encode", lambda a: not a.get("results")),
        "serve.results_s": total("serve.results")
        + total("serve.encode", lambda a: a.get("results")),
        "serve.results_calls": len(by_name.get("serve.results", [])),
        "serve.results_bytes": sum(
            (s["attrs"] or {}).get("bytes", 0)
            for s in by_name.get("serve.encode", [])
            if (s["attrs"] or {}).get("results")
        ),
        "durability.wal_append_s": total("durability.wal_append")
        + total("durability.sync"),
        "durability.wal_appends": len(by_name.get("durability.wal_append", [])),
        "durability.wal_bytes": sum(attr_values("durability.wal_append", "bytes")),
        "durability.fsyncs": sum(fsyncs),
        "durability.snapshot_s": total("durability.snapshot"),
        "durability.snapshots": len(by_name.get("durability.snapshot", [])),
        "bounds.graph_s": total("bounds.graph"),
        "bounds.solve_s": total("bounds.solve"),
        "bounds.extract_s": total("bounds.extract"),
        "bounds.extractions": len(by_name.get("bounds.extract", [])),
        "bounds.subgraph_vertices_p50": (
            median(attr_values("bounds.extract", "vertices"))
            if by_name.get("bounds.extract")
            else 0.0
        ),
        "bounds.lp_s": total("bounds.lp"),
        "bounds.lps": len(by_name.get("bounds.lp", [])),
    }


def per_pass_median(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced passes."""
    return {name: median(p[name] for p in passes) for name in passes[0]}


def complete(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric with its unit; layers not reached read 0."""
    return {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER}


def lag_p90_ms(lags_s: list[float]) -> float:
    return 1000.0 * float(numpy.percentile(lags_s, 90))
