"""batch-estimate: ``load_trace`` then ``DomoReconstructor.estimate``.

The ``domo estimate --trace FILE`` path with its defaults (domo-qp,
serial, repair validation) on one saved 100-node, 120 s trace. Window
building is most of a pass and the solve most of the rest, so this is
where a faster window build shows; it is also the single-process
baseline.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

from perfbench import checks
from perfbench.passes import PassOutcome, PassWorkload


def estimate_pass(path: Path):
    """One pass; returns (seconds, trace, estimate)."""
    import repro.sim.io as trace_io
    from repro.core.pipeline import DomoConfig, DomoReconstructor
    from repro.core.validation import ValidationConfig

    started = time.perf_counter()
    # Looked up on the module so a traced pass reaches the wrapper.
    trace = trace_io.load_trace(path, validation=ValidationConfig(mode="repair"))
    estimate = DomoReconstructor(DomoConfig()).estimate(trace)
    return time.perf_counter() - started, trace, estimate


def mean_abs_error_ms(estimates: dict, ground_truth: dict) -> float:
    """Mean |estimated - true| arrival time over every estimate."""
    return statistics.fmean(
        abs(value - ground_truth[key.packet_id].arrival_times_ms[key.hop])
        for key, value in estimates.items()
    )


class BatchEstimate(PassWorkload):
    name = "batch-estimate"

    def prepare(self, inputs: Path, manifest: dict) -> None:
        self.path = inputs / "trace.json"
        self.expected_estimates = manifest["unknowns"]

    def warmup(self, inputs: Path) -> None:
        estimate_pass(inputs / "warmup.json")

    def one_pass(self) -> PassOutcome:
        seconds, trace, estimate = estimate_pass(self.path)
        stats = estimate.stats
        streaming = stats["streaming"]
        return PassOutcome(
            seconds=seconds,
            items=len(trace.received),
            attempted=stats["windows"],
            failed=stats["failed_windows"],
            output=estimate.estimates,
            result=(trace, estimate),
            extra_layers={
                "stream.windows_committed": streaming["windows_committed"],
                "stream.window_span_ms": stats["window_span_ms"],
                "stream.peak_resident_packets": streaming[
                    "peak_resident_packets"
                ],
                "stream.max_backlog": streaming["max_backlog"],
                "stream.late_quarantined": streaming["late_quarantined"],
            },
        )

    def check(self, first: PassOutcome) -> list[str]:
        return checks.estimate_count(first.output, self.expected_estimates)

    def error_ms(self, first: PassOutcome) -> float:
        trace, _ = first.result
        return mean_abs_error_ms(first.output, trace.ground_truth)

    def info(self, first: PassOutcome) -> dict:
        trace, estimate = first.result
        return {
            "estimates": len(first.output),
            "windows": estimate.windows_used,
            "estimate_pps_first_pass": len(trace.received) / first.seconds,
        }
