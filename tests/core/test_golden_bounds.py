"""Golden digests of the §IV.C sub-graph bounds and the implied-row masks.

The bound tests elsewhere check soundness and tightness with tolerances,
so a change to the bound path that moves a bound by one ulp, or flips a
method, would go unnoticed there. This module pins every bound of a few
fixed inputs to recorded digests: for every unknown it hashes the key,
``lower.hex()``, ``upper.hex()`` and the method. The inputs cover
extraction with BLP (cuts below the graph size; at 30 the 16-node
trace's bounds equal the whole graph's, at 12 the cut loosens them),
the whole graph as one sub-graph, and the Eq. (6)-free retry
(``lp_relaxed``).

It also pins, per window of the golden-system traces, the mask of rows
the Eq. (8) QP leaves out (:func:`~repro.backends.domo_qp.droppable_rows`),
so the implied-row test both paths share cannot drift under either.

Regenerate (only when a change to the bounds is intended)::

    PYTHONPATH=src python -m tests.core.test_golden_bounds
"""

import collections
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.backends.domo_qp import droppable_rows
from repro.core.bounds import BoundComputer, BoundsConfig
from repro.core.constraints import ConstraintConfig, build_constraints
from repro.core.pipeline import DomoReconstructor
from repro.core.records import TraceIndex
from repro.core.validation import ValidationConfig
from repro.sim import NetworkConfig, simulate_network

from tests.core.test_golden_systems import TRACES, _window_systems

GOLDEN = Path(__file__).with_name("golden_bounds.json")


def _sim_bounds(cut: int) -> dict:
    """``tests/core/test_bounds.py``'s 16-node trace, every unknown."""
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=3_000.0,
            seed=4,
        )
    )
    system = build_constraints(
        TraceIndex(list(trace.received)), ConstraintConfig()
    )
    return BoundComputer(
        system, BoundsConfig(graph_cut_size=cut)
    ).bounds_for_all()


def _lossy_bounds(validation: str) -> dict:
    """The lossy golden-system trace through ``DomoReconstructor.bounds``
    at a cut of 40, below its graph size. Unvalidated, its broken Eq. (6)
    rows make every full LP infeasible, so each bound takes the retry."""
    trace, config = TRACES["lossy"]()
    config = dataclasses.replace(
        config,
        graph_cut_size=40,
        validation=ValidationConfig(mode=validation),
    )
    return DomoReconstructor(config).bounds(trace).bounds


CASES = {
    "sim_cut12": lambda: _sim_bounds(12),
    "sim_cut30": lambda: _sim_bounds(30),
    "sim_cut10000": lambda: _sim_bounds(10_000),
    "lossy_cut40": lambda: _lossy_bounds("repair"),
    "lossy_unvalidated_cut40": lambda: _lossy_bounds("off"),
}


def bounds_entry(results: dict) -> dict:
    """sha256 over every bound's canonical line, plus method counts."""
    digest = hashlib.sha256()
    for key in sorted(
        results, key=lambda k: (k.packet_id.source, k.packet_id.seqno, k.hop)
    ):
        entry = results[key]
        digest.update(
            f"{key.packet_id.source}.{key.packet_id.seqno}@{key.hop} "
            f"{float(entry.lower).hex()} {float(entry.upper).hex()} "
            f"{entry.method}\n".encode()
        )
    methods = collections.Counter(entry.method for entry in results.values())
    return {
        "sha256": digest.hexdigest(),
        "methods": dict(sorted(methods.items())),
    }


def droppable_masks(name: str) -> list[str]:
    """Per window: the dropped rows' ids, as a sha256."""
    trace, config = TRACES[name]()
    masks = []
    for ws in _window_systems(trace, config):
        system = ws.system
        lows, highs = map(np.asarray, system.variable_bounds())
        A, lower, upper = system.builder.build(
            num_variables=system.num_unknowns
        )
        dropped = np.flatnonzero(droppable_rows(A, lower, upper, lows, highs))
        masks.append(
            hashlib.sha256(dropped.astype("<i8").tobytes()).hexdigest()
        )
    return masks


def current_golden() -> dict:
    return {
        "bounds": {name: bounds_entry(make()) for name, make in CASES.items()},
        "droppable_rows": {name: droppable_masks(name) for name in TRACES},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_bounds_match_golden_digests(golden, name):
    assert bounds_entry(CASES[name]()) == golden["bounds"][name]


@pytest.mark.parametrize("name", sorted(TRACES))
def test_droppable_rows_match_golden_masks(golden, name):
    assert droppable_masks(name) == golden["droppable_rows"][name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_golden(), indent=1) + "\n")
