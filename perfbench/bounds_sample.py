"""bounds-sample: ``DomoReconstructor.bounds`` on a seeded packet sample.

A 60-node, 120 s trace with a graph cut of 500, below the constraint
graph's size, so sub-graph extraction and BLP run as they do at the
paper's scale. The only workload that reaches ``graphcut`` and
``optim.lp``, and one that builds one large constraint system instead
of many overlapping windows.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from perfbench import checks
from perfbench.passes import PassOutcome, PassWorkload


def bounds_pass(trace, sample, cut: int):
    """One pass; returns (seconds, BoundReconstruction)."""
    from repro.core.pipeline import DomoConfig, DomoReconstructor

    started = time.perf_counter()
    result = DomoReconstructor(DomoConfig(graph_cut_size=cut)).bounds(
        trace, packet_ids=sample
    )
    return time.perf_counter() - started, result


def load(inputs: Path, name: str):
    from repro.sim.io import load_trace

    return load_trace(inputs / name)


class BoundsSample(PassWorkload):
    name = "bounds-sample"

    def prepare(self, inputs: Path, manifest: dict) -> None:
        from repro.sim.packet import PacketId

        self.trace = load(inputs, "trace.json")
        self.sample = [
            PacketId(source, seqno)
            for source, seqno in json.loads((inputs / "sample.json").read_text())
        ]
        self.cut = manifest["graph_cut_size"]
        self.warmup_cut = manifest["warmup_graph_cut_size"]
        self.expected_targets = manifest["lp_targets"]

    def warmup(self, inputs: Path) -> None:
        trace = load(inputs, "warmup.json")
        sample = [p.packet_id for p in trace.received[:10]]
        bounds_pass(trace, sample, self.warmup_cut)

    def one_pass(self) -> PassOutcome:
        seconds, result = bounds_pass(self.trace, self.sample, self.cut)
        methods = [entry.method for entry in result.bounds.values()]
        fallbacks = methods.count("interval")
        return PassOutcome(
            seconds=seconds,
            items=len(result.bounds),
            attempted=len(methods),
            failed=fallbacks,
            output={
                key: (entry.lower, entry.upper, entry.method)
                for key, entry in result.bounds.items()
            },
            result=result,
            extra_layers={
                "bounds.lp_relaxed": methods.count("lp_relaxed"),
                "bounds.interval_fallbacks": fallbacks,
            },
        )

    def check(self, first: PassOutcome) -> list[str]:
        truth = self.trace.ground_truth
        problems = checks.bounds_contain_truth(
            {key: (lo, hi) for key, (lo, hi, _) in first.output.items()},
            {
                key: truth[key.packet_id].arrival_times_ms[key.hop]
                for key in first.output
            },
        )
        if len(first.output) != self.expected_targets:
            problems.append(
                f"{len(first.output)} bounds for "
                f"{self.expected_targets} LP targets"
            )
        return problems

    def error_ms(self, first: PassOutcome) -> float:
        """Mean per-hop delay-bound width over the sampled packets."""
        result = first.result
        return statistics.fmean(
            hi - lo
            for pid in self.sample
            for lo, hi in result.delay_bounds(pid)
        )

    def info(self, first: PassOutcome) -> dict:
        return {
            "bounds": len(first.output),
            "bound_width_ms": self.error_ms(first),
        }
