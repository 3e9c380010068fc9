"""The repository benchmark: one command, three seeded workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload batch-estimate --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer self
times and counts (see ``perfbench/layers.py``). Informational lines
(host context, input manifest, extra values) go to standard output
first; the last line is the JSON result. A failed output check prints
``"correct": false`` and exits 1; a benchmark that cannot run (no
program sources, broken set-up) prints no result and exits 2. A
measurement the host made invalid (``serve-live`` generator lag over
its bound) is named under ``invalid`` in the ``info`` line; its result
is printed in full and, when every check passed, it exits 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (
    BenchError,
    HostContext,
    import_program,
    make_workdir,
)

WORKLOADS = ("batch-estimate", "serve-live", "bounds-sample")


@dataclass
class Context:
    """One run's settings and scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str
    workdir: Path


def run_workload(ctx: Context):
    if ctx.workload == "batch-estimate":
        from perfbench.batch_estimate import BatchEstimate
        from perfbench.passes import run_passes

        return run_passes(BatchEstimate(), ctx)
    if ctx.workload == "bounds-sample":
        from perfbench.bounds_sample import BoundsSample
        from perfbench.passes import run_passes

        return run_passes(BoundsSample(), ctx)
    from perfbench.serve_live import run_serve

    return run_serve(ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own smoke tests",
    )
    args = parser.parse_args(argv)

    # One BLAS thread in this process and in every child: on a host of
    # a few cores, BLAS workers spinning beside the program's threads,
    # the server and the generator measure the scheduler.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    host = HostContext()
    try:
        import_program()
        workdir = make_workdir(f"{args.workload}-{args.seed}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        size=args.size,
        workdir=workdir,
    )
    try:
        result = run_workload(ctx)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result.info["host"] = host.finish()
    result.info["workload"] = args.workload
    result.info["seed"] = args.seed
    result.info["trace"] = args.trace
    result.info["invalid"] = result.invalid
    print("info " + json.dumps(result.info, default=str), flush=True)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for reason in result.invalid:
        print(f"invalid measurement: {reason}", file=sys.stderr)
    print(result.result_line(), flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
