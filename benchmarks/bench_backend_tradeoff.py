"""Estimator-backend trade-off: accuracy (MAE) vs solve throughput.

Every registered backend solves the *same* prebuilt window systems over
one seeded trace, so the comparison isolates the solve phase — window
building, validation, and merging are identical across backends and
would otherwise dominate the wall clock. Reported per backend:

* **MAE (ms)** against the simulator's ground-truth arrival times, over
  exactly the kept estimates each backend emits;
* **windows/sec** through :func:`repro.runtime.executor.execute_windows`.

Every backend must cover the same unknowns. Estimate counts per backend
are deterministic seeded outputs and are pinned exactly by the
perf-gate baseline.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from benchmarks.conftest import simulated_trace
from repro.analysis.tables import format_sweep_table
from repro.backends import backend_names
from repro.core.pipeline import DomoConfig, constraint_config_for
from repro.core.preprocessor import build_window_systems, choose_window_span
from repro.runtime.executor import execute_windows

NODES = 60
DURATION_MS = 120_000.0
SEED = 3


def _window_systems(trace, config: DomoConfig):
    packets = list(trace.received)
    span_ms = (
        config.window_span_ms
        if config.window_span_ms is not None
        else choose_window_span(packets, config.target_window_packets)
    )
    return build_window_systems(
        packets,
        constraint_config_for(config),
        span_ms,
        effective_ratio=config.effective_window_ratio,
    )


def _mae_ms(trace, estimates) -> float:
    errors = [
        abs(value - trace.truth_of(key.packet_id).arrival_times_ms[key.hop])
        for key, value in estimates.items()
    ]
    return float(np.mean(errors)) if errors else 0.0


def run_tradeoff(trace, config: DomoConfig | None = None):
    """Solve the shared window set under every backend; rows + stats."""
    config = config or DomoConfig()
    systems = _window_systems(trace, config)
    base_spec = config.solve_spec()
    rows = []
    stats: dict = {
        "packets": trace.num_received,
        "windows": len(systems),
    }
    for name in backend_names():
        spec = replace(base_spec, backend=name)
        started = time.perf_counter()
        report = execute_windows(systems, spec)
        elapsed = time.perf_counter() - started
        estimates: dict = {}
        for result in report.results:
            estimates.update(result.estimates)
        wps = len(systems) / elapsed if elapsed > 0 else float("inf")
        mae = _mae_ms(trace, estimates)
        rows.append([name, f"{mae:.3f}", f"{wps:.1f}", len(estimates)])
        stats[f"estimates_{name.replace('-', '_')}"] = len(estimates)
        stats[f"mae_{name.replace('-', '_')}"] = mae
        stats[f"wps_{name.replace('-', '_')}"] = wps
    return rows, stats


def test_backend_tradeoff(benchmark):
    trace = simulated_trace(
        num_nodes=NODES, seed=SEED, duration_ms=DURATION_MS
    )
    rows, stats = benchmark.pedantic(
        run_tradeoff, args=(trace,), rounds=1, iterations=1
    )
    print()
    print(format_sweep_table(
        ["backend", "MAE (ms)", "windows/s", "estimates"], rows
    ))
    # Every backend must cover the same unknowns (same kept regions).
    counts = {
        stats[f"estimates_{n.replace('-', '_')}"] for n in backend_names()
    }
    assert len(counts) == 1, f"backends disagree on coverage: {counts}"


def main() -> None:
    from benchmarks.harness import BenchHarness

    trace = simulated_trace(
        num_nodes=NODES, seed=SEED, duration_ms=DURATION_MS
    )
    print(f"trace: {trace.num_received} packets\n")
    with BenchHarness(
        "backend_tradeoff",
        config={"nodes": NODES, "seed": SEED, "duration_ms": DURATION_MS},
    ) as bench:
        rows, stats = run_tradeoff(trace)
        # MAE and windows/sec are informational (machine-dependent);
        # the estimate counts are seeded-deterministic parity pins.
        bench.record(**{
            key: value for key, value in stats.items()
            if key.startswith(("estimates_", "packets", "windows"))
        })
        bench.record(
            **{k: v for k, v in stats.items() if k.startswith("mae_")}
        )
    print(format_sweep_table(
        ["backend", "MAE (ms)", "windows/s", "estimates"], rows
    ))


if __name__ == "__main__":
    main()
