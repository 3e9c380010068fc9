"""Shared plumbing of the repository benchmark: paths, statistics, host
context, memory readings and the result line.

Everything here is benchmark-side. The program under test is imported
from ``<checkout>/src`` by :func:`import_program`, never installed.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: the checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
#: scratch space for generated inputs, sockets and WALs (git-ignored).
WORK_ROOT = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up)."""


def import_program() -> None:
    """Put ``<checkout>/src`` first on ``sys.path``; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"program sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def program_env() -> dict:
    """Environment for a child process that imports the program."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def make_workdir(tag: str) -> Path:
    """A fresh per-run directory under the checkout's work root."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


# ----------------------------------------------------------------------
# Memory and CPU of this process and of child process trees
# ----------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children(pid: int) -> list[int]:
    found = []
    task_dir = Path(f"/proc/{pid}/task")
    try:
        tasks = list(task_dir.iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        found.extend(int(child) for child in text.split())
    return found


def process_tree(pid: int) -> list[int]:
    """``pid`` and all of its live descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def tree_cpu_s(pid: int) -> float:
    """User+system CPU seconds of a live process tree (from /proc)."""
    ticks = os.sysconf("SC_CLK_TCK")
    total = 0
    for member in process_tree(pid):
        try:
            fields = Path(f"/proc/{member}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        parts = fields.split()
        total += int(parts[11]) + int(parts[12])  # utime, stime
    return total / ticks


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of VmHWM (peak RSS) over a live process tree, in MiB."""
    total_kib = 0
    for member in process_tree(pid):
        try:
            text = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


# ----------------------------------------------------------------------
# Host context
# ----------------------------------------------------------------------


def _cpu_ticks() -> dict | None:
    try:
        first = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return None
    names = ("user", "nice", "system", "idle", "iowait", "irq",
             "softirq", "steal")
    return {name: int(value) for name, value in zip(names, first[1:])}


class HostContext:
    """CPU count, load and steal over one run, plus toolchain versions."""

    def __init__(self) -> None:
        self._start = _cpu_ticks()
        self._load_start = os.getloadavg()

    def finish(self) -> dict:
        end = _cpu_ticks()
        context = {
            "cpu_count": os.cpu_count(),
            "loadavg_start": [round(x, 2) for x in self._load_start],
            "loadavg_end": [round(x, 2) for x in os.getloadavg()],
            "python": platform.python_version(),
        }
        if self._start is not None and end is not None:
            delta = {k: end[k] - self._start[k] for k in end}
            busy = sum(delta.values()) or 1
            context["steal_ticks"] = delta["steal"]
            context["steal_frac"] = round(delta["steal"] / busy, 4)
        for module in ("numpy", "scipy"):
            try:
                context[module] = __import__(module).__version__
            except ImportError:
                context[module] = None
        return context


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    #: metric name -> (value, unit)
    metrics: dict[str, tuple[float, str]]
    #: output-check failures (empty when every check passed).
    problems: list[str] = field(default_factory=list)
    #: why the measurement is invalid (the host, not the program, was
    #: measured); printed in the info line. Empty when valid.
    invalid: list[str] = field(default_factory=list)
    #: lines printed before the result: host context, manifest, extras.
    info: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def result_line(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": int(self.attempted),
                "failed": int(self.failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            },
            allow_nan=False,
        )
