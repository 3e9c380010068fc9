"""Smoke tests of the benchmark itself, on tiny inputs.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench.common import ROOT
from perfbench.inputs import generate
from perfbench.run import WORKLOADS

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


#: serve-live replays for longer: its coverage is a share of server CPU
#: time, which /proc reports in 10 ms ticks.
SECONDS = {"serve-live": "8"}


def run_bench(workload: str, trace: int, cwd=ROOT):
    completed = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", SECONDS.get(workload, "1"),
            "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return completed


def parse(completed):
    lines = completed.stdout.strip().splitlines()
    assert completed.returncode == 0, completed.stderr[-3000:]
    info = json.loads(lines[-2].removeprefix("info "))
    return info, json.loads(lines[-1])


def run_all(trace: int) -> dict:
    return {workload: parse(run_bench(workload, trace)) for workload in WORKLOADS}


@pytest.fixture(scope="module")
def untraced():
    return run_all(0)


@pytest.fixture(scope="module")
def traced():
    return run_all(1)


def test_every_workload_runs_end_to_end(untraced, traced):
    for runs in (untraced, traced):
        for workload, (_, result) in runs.items():
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, workload
            assert result["attempted"] >= 1 and result["failed"] == 0, workload


def test_every_metric_is_printed_with_its_unit(untraced, traced):
    for runs, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for workload, (_, result) in runs.items():
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            assert printed == expected, (workload, kind)


def test_end_to_end_metrics_are_never_zero(untraced):
    for workload, (_, result) in untraced.items():
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_traced_run_covers_each_pass(traced):
    for workload, (info, result) in traced.items():
        coverage = result["metrics"]["trace.coverage"]["value"]
        assert coverage >= 0.9, (workload, coverage)
        for per_pass in info.get("coverage_per_pass", []):
            assert per_pass >= 0.9, (workload, info["coverage_per_pass"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_reproduces_inputs(tmp_path, workload):
    def files(seed, name):
        out = tmp_path / name
        generate(workload, seed, out, size="tiny")
        return {
            path.name: path.read_bytes()
            for path in out.iterdir()
            if path.name != "manifest.json"
        }

    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert first == again
    # Every input file changes with the seed (serve-live's stream names
    # are seeded too, so compare contents, not names).
    assert len(first) == len(other)
    assert not set(first.values()) & set(other.values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = run_bench("batch-estimate", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
