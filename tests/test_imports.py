"""Import discipline: of scipy, program modules import only scipy.sparse
at module level. ``scipy.optimize``, ``scipy.sparse.linalg`` and
``scipy.linalg`` load at the first call that needs them (DESIGN §11),
so a process that never runs an LP or factors a window does not carry
them.

Each check runs in a fresh interpreter: this one has imported
everything long since.
"""

import json
import os
import subprocess
import sys

import pytest

SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

#: the scipy packages that load on first call, never at import.
HEAVY = ("scipy.optimize", "scipy.sparse.linalg", "scipy.linalg")

#: a trace whose Eq. (8) windows all take the dense form.
SMALL_TRACE = """
from repro import DomoConfig, DomoReconstructor, NetworkConfig, simulate_network
trace = simulate_network(NetworkConfig(
    num_nodes=9, placement="grid", duration_ms=10_000.0,
    packet_period_ms=2_000.0, seed=3,
))
domo = DomoReconstructor(DomoConfig())
"""


def _heavy_loaded_after(code: str) -> set[str]:
    """The :data:`HEAVY` packages in ``sys.modules`` after ``code`` runs
    in a fresh interpreter with ``src`` on the path."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def baseline() -> set[str]:
    """What numpy and scipy.sparse load by themselves (empty on the
    scipy releases this was written against)."""
    return _heavy_loaded_after("import numpy, scipy.sparse")


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.server"])
def test_entry_points_import_no_heavy_scipy(module, baseline):
    assert _heavy_loaded_after(f"import {module}") - baseline == set()


def test_small_window_estimate_loads_lapack_not_the_lp_stack(baseline):
    loaded = _heavy_loaded_after(
        SMALL_TRACE
        + "estimate = domo.estimate(trace)\n"
        + "assert estimate.stats['windows'] > 0\n"
    )
    assert "scipy.linalg" in loaded
    assert "scipy.optimize" not in loaded - baseline


def test_bounds_load_the_lp_stack():
    loaded = _heavy_loaded_after(
        SMALL_TRACE + "domo.bounds(trace, [trace.received[0].packet_id])\n"
    )
    assert "scipy.optimize" in loaded


def test_sub_graph_extraction_loads_no_lp_stack(baseline):
    """BLP takes its move counts in closed form: extracting sub-graphs
    below the graph's size solves no LP."""
    loaded = _heavy_loaded_after(
        "from repro.graphcut import ConstraintGraph, SubgraphExtractor\n"
        "graph = ConstraintGraph()\n"
        "for i in range(60):\n"
        "    graph.add_clique([i, (i + 1) % 60, (i + 7) % 60])\n"
        "extractor = SubgraphExtractor(graph, cut_size=20)\n"
        "assert all(extractor.extract(v).blp.rounds for v in range(60))\n"
    )
    assert "scipy.optimize" not in loaded - baseline
