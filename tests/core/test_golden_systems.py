"""Golden digests of the window constraint systems.

Every other bit-exact test compares two paths through the same build, so
a change to the build itself would go unnoticed there. This module pins
the build to recorded digests: for every window of three small fixed
traces it hashes A's indptr/indices/data, l, u, the column order, the
resolved intervals, the FIFO pair directions and the stats.

Estimates are left out on purpose: they pass through SuperLU and BLAS
and may differ across hosts, while everything hashed here is plain
Python and scipy index arithmetic.

Regenerate (only when a change to the build is intended)::

    PYTHONPATH=src python -m tests.core.test_golden_systems
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.analysis.experiments import substrate_domo_config
from repro.core.pipeline import DomoConfig, constraint_config_for
from repro.core.preprocessor import build_window_systems, choose_window_span
from repro.core.validation import ValidationConfig, validate_packets
from repro.faults.injectors import inject, make_injector
from repro.sim import NetworkConfig, simulate_network
from repro.sim.io import trace_from_dict, trace_to_dict

from tests.core.conftest import bundle_of, make_received

GOLDEN = Path(__file__).with_name("golden_systems.json")


def _identity_trace():
    """The streaming identity tests' trace, clean, paper defaults."""
    trace = simulate_network(
        NetworkConfig(
            num_nodes=25,
            placement="grid",
            duration_ms=40_000.0,
            packet_period_ms=3_000.0,
            seed=23,
        )
    )
    return trace, DomoConfig()


def _lossy_trace():
    """A faulted trace under the substrate config: loss, wrapped sums and
    looping paths exercise the FIFO margins, distrusted and loss-aware
    sums and unanchored candidate sets."""
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=30_000.0,
            packet_period_ms=2_000.0,
            seed=5,
        )
    )
    faulted = inject(
        trace_to_dict(trace),
        [
            make_injector("delete_received", rate=0.2),
            make_injector("wrap_sum", rate=0.1),
            make_injector("corrupt_path", rate=0.1),
        ],
        np.random.default_rng(5),
    )
    return trace_from_dict(faulted), substrate_domo_config()


def _revisit_trace():
    """Hand-built edge cases, unvalidated: a pair no interval resolves,
    node revisits, a self-loop whose sum terms cancel, identical
    generation times and single-hop locals."""
    bundle = bundle_of(
        make_received(1, 0, (1, 0), (0.0, 5.0), sum_of_delays=5),
        make_received(2, 0, (2, 1, 4, 0), (0.0, 50.0, 70.0, 100.0), 50),
        make_received(3, 0, (3, 1, 5, 0), (1.0, 52.0, 72.0, 101.0), 51),
        make_received(6, 0, (6, 1, 7, 1, 0), (0.0, 20.0, 30.0, 45.0, 60.0), 20),
        make_received(8, 0, (8, 1, 1, 0), (10.0, 30.0, 40.0, 55.0), 20),
        make_received(2, 1, (2, 1, 4, 0), (200.0, 215.0, 240.0, 260.0), 15),
        make_received(6, 1, (6, 1, 7, 1, 0), (250.0, 262.0, 270.0, 280.0, 290.0), 12),
        make_received(1, 1, (1, 0), (300.0, 306.0), sum_of_delays=40),
    )
    return bundle, DomoConfig(validation=ValidationConfig(mode="off"))


TRACES = {
    "identity": _identity_trace,
    "lossy": _lossy_trace,
    "revisit": _revisit_trace,
}


def _window_systems(trace, config):
    packets, report = validate_packets(list(trace.received), config.validation)
    span = choose_window_span(packets, config.target_window_packets)
    return build_window_systems(
        packets,
        constraint_config_for(config, report),
        window_span_ms=span,
        effective_ratio=config.effective_window_ratio,
    )


def _key_text(key) -> str:
    return f"{key.packet_id.source}.{key.packet_id.seqno}@{key.hop}"


def system_digest(system) -> str:
    """sha256 over one system's canonical bytes."""
    digest = hashlib.sha256()

    def feed(text: str) -> None:
        digest.update(text.encode())
        digest.update(b"\n")

    A, lower, upper = system.builder.build(num_variables=system.num_unknowns)
    for array in (A.indptr, A.indices, A.data, lower, upper):
        feed(f"{array.dtype.str}:{array.shape}")
        digest.update(np.ascontiguousarray(array).tobytes())
    feed(" ".join(_key_text(key) for key in system.variables))
    for key in sorted(
        system.intervals,
        key=lambda k: (k.packet_id.source, k.packet_id.seqno, k.hop),
    ):
        lo, hi = system.intervals[key]
        feed(f"{_key_text(key)} {float(lo).hex()} {float(hi).hex()}")
    for pair in [*system.fifo_resolved, *system.fifo_unresolved]:
        feed(
            f"{pair.node} {_key_text(pair.x_at)} {_key_text(pair.y_at)} "
            f"{_key_text(pair.x_next)} {_key_text(pair.y_next)} "
            f"{pair.direction}"
        )
    feed(json.dumps(system.stats, sort_keys=True))
    return digest.hexdigest()


def current_digests() -> dict[str, list[str]]:
    digests = {}
    for name, make in TRACES.items():
        trace, config = make()
        digests[name] = [
            system_digest(ws.system) for ws in _window_systems(trace, config)
        ]
    return digests


def test_window_systems_match_golden_digests():
    expected = json.loads(GOLDEN.read_text())
    actual = current_digests()
    assert actual.keys() == expected.keys()
    for name in expected:
        assert len(actual[name]) == len(expected[name]), name
        for window, (got, want) in enumerate(
            zip(actual[name], expected[name])
        ):
            assert got == want, f"{name} window {window} drifted"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_digests(), indent=1) + "\n")
