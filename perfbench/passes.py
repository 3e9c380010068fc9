"""The run loop shared by the two in-process workloads.

``batch-estimate`` and ``bounds-sample`` both repeat one pass over one
input: set up several times (report the median), then run passes until
the run's seconds are spent and report medians over passes. A host
speed probe runs before every set-up and pass and after the last, and
each timing is reported at the nominal host speed of the probes around
it (``perfbench/hostspeed.py``); the raw times go to the info line. The
traced run alternates untraced and traced passes, so the tracing
overhead is measured under the same conditions, and requires both to
return the same output.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from perfbench import hostspeed, layers
from perfbench.common import (
    ROOT,
    BenchError,
    RunResult,
    median,
    program_env,
    self_peak_rss_mb,
)
from perfbench.tracing import Tracer, as_dicts, coverage, install

#: set-ups per run; setup_s is their median.
SETUPS = 3
#: at least this many measured passes, however short ``--seconds`` is.
MIN_PASSES = 3


def generate_inputs(workload: str, seed: int, size: str, out: Path) -> dict:
    """Run the seeded input generator in a child process."""
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "inputs.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--size", size,
            "--out", str(out),
        ],
        cwd=ROOT,
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        raise BenchError(
            f"input generation failed ({completed.returncode}): "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads((out / "manifest.json").read_text())


@dataclass
class PassOutcome:
    """One pass: its wall time and what it produced."""

    seconds: float
    #: work items completed (packets estimated, bounds computed).
    items: int
    attempted: int
    failed: int
    #: the comparable output (estimates or bounds), for identity checks.
    output: dict
    #: the program's own result object, for accuracy and layer counts.
    result: object = None
    extra_layers: dict = field(default_factory=dict)
    #: index of the host speed probe taken just before the pass.
    probe: int = 0


class PassWorkload:
    """What a pass workload supplies to :func:`run_passes`."""

    name = ""

    def prepare(self, inputs: Path, manifest: dict) -> None:
        """Load what every pass needs (part of set-up)."""

    def warmup(self, inputs: Path) -> None:
        """Run one pass on the small warm-up input (part of set-up)."""

    def one_pass(self) -> PassOutcome:
        raise NotImplementedError

    def check(self, first: PassOutcome) -> list[str]:
        """Output checks on the first measured pass."""
        return []

    def error_ms(self, first: PassOutcome) -> float:
        raise NotImplementedError

    def info(self, first: PassOutcome) -> dict:
        return {}


def _set_up(workload: PassWorkload, ctx, probes) -> tuple[list, dict]:
    """Set up SETUPS times; returns (seconds, probe before) of each and
    the manifest. The probe after the last set-up is the first pass's."""
    setups = []
    manifest = {}
    for index in range(SETUPS):
        before = probes.take()
        started = time.perf_counter()
        inputs = ctx.workdir / f"setup-{index}"
        manifest = generate_inputs(workload.name, ctx.seed, ctx.size, inputs)
        workload.prepare(inputs, manifest)
        workload.warmup(inputs)
        setups.append((time.perf_counter() - started, before))
    return setups, manifest


def _traced_pass(workload: PassWorkload):
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        with tracer.span("pass"):
            outcome = workload.one_pass()
    finally:
        uninstall()
    spans = as_dicts(tracer.spans)
    root = next(s for s in spans if s["name"] == "pass")
    values = layers.span_metrics(spans)
    values.update(outcome.extra_layers)
    values["trace.coverage"] = coverage(spans, root["id"])
    return outcome, values


def run_passes(workload: PassWorkload, ctx) -> RunResult:
    probes = hostspeed.Probes()
    setups, manifest = _set_up(workload, ctx, probes)
    first: PassOutcome | None = None
    problems: list[str] = []
    untraced: list[PassOutcome] = []
    traced: list[PassOutcome] = []
    traced_values: list[dict] = []

    def keep(outcome: PassOutcome, label: str, into: list) -> None:
        # Only the first pass keeps its output; later ones are compared
        # and dropped, so memory does not grow with the number of passes.
        if first is not None and outcome.output != first.output:
            problems.append(
                f"{label} pass {len(into)} output differs from the first pass"
            )
        if first is not None:
            outcome.output = outcome.result = None
        into.append(outcome)

    deadline = time.perf_counter() + ctx.seconds
    while time.perf_counter() < deadline or len(untraced) < MIN_PASSES:
        before = probes.take()
        outcome = workload.one_pass()
        outcome.probe = before
        keep(outcome, "untraced", untraced)
        if first is None:
            first = outcome
            problems.extend(workload.check(first))
        if ctx.trace:
            before = probes.take()
            outcome, values = _traced_pass(workload)
            outcome.probe = before
            keep(outcome, "traced", traced)
            traced_values.append(values)

    probes.take()
    every = untraced + traced
    seconds = [probes.adjust(o.seconds, o.probe) for o in untraced]
    throughput = [o.items / s for o, s in zip(untraced, seconds)]
    info = {
        "manifest": manifest,
        "passes": len(untraced),
        "raw_pass_seconds": [round(o.seconds, 4) for o in untraced],
        "raw_setup_seconds": [round(s, 4) for s, _ in setups],
        "raw_throughput_per_s": median(o.items / o.seconds for o in untraced),
        "pass_p50_ms": 1000.0 * median(seconds),
        "pass_p90_ms": 1000.0 * float(numpy.percentile(seconds, 90)),
        **probes.info(),
        **workload.info(first),
    }
    if ctx.trace:
        values = layers.per_pass_median(traced_values)
        values["trace.coverage"] = min(v["trace.coverage"] for v in traced_values)
        values["trace.overhead"] = (
            median(probes.adjust(o.seconds, o.probe) for o in traced)
            / median(seconds)
            - 1.0
        )
        info["coverage_per_pass"] = [
            round(v["trace.coverage"], 4) for v in traced_values
        ]
        info["manifest"]["fifo_pairs_per_window_p50"] = values[
            "window_build.fifo_pairs_p50"
        ]
        metrics = layers.complete(values)
    else:
        metrics = {
            "setup_s": (median(probes.adjust(*s) for s in setups), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "throughput_per_s": (median(throughput), "1/s"),
            "error_ms": (workload.error_ms(first), "ms"),
        }
    return RunResult(
        attempted=sum(o.attempted for o in every),
        failed=sum(o.failed for o in every),
        metrics=metrics,
        problems=problems,
        info=info,
    )
