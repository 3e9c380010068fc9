"""Seeded input generation for the three workloads, plus their manifests.

Run as a child process during set-up::

    python perfbench/inputs.py --workload batch-estimate --seed 7 --out DIR

Why the seed perturbs fixed networks instead of drawing new ones: on the
100-node ``paper_scenario``, one pass of ``estimate`` costs between 1.8
and 4.2 s depending on which network the simulator's seed draws (seeds
1-8 on a 2-core host; the topology sets FIFO-pair density and the QP's
iteration count). A fresh network per seed would put that 2x spread into
every throughput number. So each workload simulates fixed base networks
(the ones the workload descriptions are sized on), and ``--seed`` applies
a structure-preserving transformation: a random relabelling of every node
id and a random shift of the global clock. The program sees different
bytes, different packet ids, different hash and tie-break orders and
different floating-point roundings, while the constraint structure, and
with it the cost, stays that of the base network.

Every workload directory gets a ``manifest.json`` of the input properties
the layers depend on, so a later claim about "inputs with property X"
can cite the measured share.
"""

from __future__ import annotations

import argparse
import bisect
import json
import random
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import import_program, median

#: input sizes. "full" is the benchmark; "tiny" is for the smoke tests.
SIZES = {
    "full": {
        "batch-estimate": {"nodes": 100, "duration_s": 120.0, "base_seed": 1},
        "bounds-sample": {
            "nodes": 60, "duration_s": 120.0, "base_seed": 1,
            "sample": 30, "cut": 500,
        },
        "serve-live": {
            "streams": 4, "nodes": 25, "duration_s": 150.0, "base_seed": 1,
        },
        "warmup": {"nodes": 16, "duration_s": 30.0, "base_seed": 2, "cut": 40},
    },
    "tiny": {
        "batch-estimate": {"nodes": 25, "duration_s": 60.0, "base_seed": 1},
        "bounds-sample": {
            "nodes": 16, "duration_s": 40.0, "base_seed": 1,
            "sample": 8, "cut": 15,
        },
        "serve-live": {
            "streams": 2, "nodes": 9, "duration_s": 240.0, "base_seed": 1,
        },
        "warmup": {"nodes": 9, "duration_s": 20.0, "base_seed": 2, "cut": 20},
    },
}

#: largest clock shift applied by a seed, ms (one hour).
MAX_SHIFT_MS = 3_600_000


def simulate(nodes: int, duration_s: float, base_seed: int):
    """One fixed base network of the paper's evaluation scenario."""
    from repro.analysis.scenarios import paper_scenario
    from repro.sim.simulator import simulate_network

    return simulate_network(
        paper_scenario(
            num_nodes=nodes, seed=base_seed, duration_ms=duration_s * 1000.0
        )
    )


def perturb(trace, rng: random.Random, shift: float | None = None):
    """Relabel every node and shift the clock; structure is unchanged.

    ``shift`` (ms) defaults to a random one; streams replayed together
    share one, so their records still interleave in sink-arrival order.
    """
    from repro.sim.io import trace_from_dict, trace_to_dict

    data = trace_to_dict(trace)
    nodes = sorted(
        {n for record in data["received"] for n in record["path"]}
        | {int(node) for node in data["node_logs"]}
        | {data["sink"]}
    )
    shuffled = nodes[:]
    rng.shuffle(shuffled)
    relabel = dict(zip(nodes, shuffled))
    if shift is None:
        shift = float(rng.randrange(0, MAX_SHIFT_MS))

    def packet_id(ident):
        return [relabel[ident[0]], ident[1]]

    for record in data["received"]:
        record["id"] = packet_id(record["id"])
        record["path"] = [relabel[n] for n in record["path"]]
        record["t0"] += shift
        record["t_sink"] += shift
    for record in data["ground_truth"]:
        record["id"] = packet_id(record["id"])
        record["path"] = [relabel[n] for n in record["path"]]
        record["arrivals"] = [t + shift for t in record["arrivals"]]
    data["node_logs"] = {
        str(relabel[int(node)]): [
            [kind, relabel[source], seqno, local]
            for kind, source, seqno, local in log
        ]
        for node, log in data["node_logs"].items()
    }
    data["lost"] = [packet_id(ident) for ident in data["lost"]]
    data["sink"] = relabel[data["sink"]]
    return trace_from_dict(data)


# ----------------------------------------------------------------------
# Manifests
# ----------------------------------------------------------------------


def packet_properties(packets) -> dict:
    """Counts every layer scales with: packets, unknowns, path length."""
    unknowns = sum(max(0, len(p.path) - 2) for p in packets)
    return {
        "packets": len(packets),
        "unknowns": unknowns,
        "mean_path_length": (
            sum(len(p.path) for p in packets) / len(packets) if packets else 0.0
        ),
    }


def window_plan(packets) -> dict:
    """The batch window grid: span, solved windows, members per window.

    Mirrors ``build_window_systems``' membership rule (half-open solve
    region, windows without kept packets skipped) without building any
    constraint system, so it is cheap enough for set-up.
    """
    from repro.core.pipeline import DomoConfig
    from repro.core.preprocessor import choose_window_span, generation_order
    from repro.core.windows import plan_windows

    config = DomoConfig()
    span_ms = choose_window_span(packets, config.target_window_packets)
    ordered = generation_order(packets)
    t0s = [p.generation_time_ms for p in ordered]
    members = []
    for window in plan_windows(t0s, span_ms, config.effective_window_ratio):
        lo = bisect.bisect_left(t0s, window.start_ms)
        hi = bisect.bisect_left(t0s, window.end_ms, lo)
        keep_lo = bisect.bisect_left(t0s, window.keep_start_ms, lo, hi)
        keep_hi = bisect.bisect_left(t0s, window.keep_end_ms, lo, hi)
        if hi > lo and keep_hi > keep_lo:
            members.append(hi - lo)
    return {
        "window_span_ms": span_ms,
        "windows": len(members),
        "packets_per_window_p50": median(members) if members else 0.0,
    }


def lp_targets(packets, sample_ids) -> int:
    """Unknown arrival times of the sampled packets (one LP pair each)."""
    wanted = set(sample_ids)
    return sum(max(0, len(p.path) - 2) for p in packets if p.packet_id in wanted)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------


def _save_warmup(out: Path, size: dict, rng: random.Random) -> None:
    from repro.sim.io import save_trace

    spec = size["warmup"]
    trace = perturb(
        simulate(spec["nodes"], spec["duration_s"], spec["base_seed"]), rng
    )
    save_trace(trace, out / "warmup.json")


def generate_batch(out: Path, seed: int, size: dict) -> dict:
    from repro.sim.io import save_trace

    spec = size["batch-estimate"]
    rng = random.Random(f"batch-estimate:{seed}")
    trace = perturb(
        simulate(spec["nodes"], spec["duration_s"], spec["base_seed"]), rng
    )
    save_trace(trace, out / "trace.json")
    _save_warmup(out, size, rng)
    return {
        "nodes": spec["nodes"],
        "simulated_s": spec["duration_s"],
        **packet_properties(trace.received),
        **window_plan(trace.received),
    }


def generate_bounds(out: Path, seed: int, size: dict) -> dict:
    from repro.sim.io import save_trace

    spec = size["bounds-sample"]
    rng = random.Random(f"bounds-sample:{seed}")
    base = simulate(spec["nodes"], spec["duration_s"], spec["base_seed"])
    # The sample is drawn on the base network, so every seed bounds the
    # same packets under new labels: which packets are sampled changes
    # the LP count and the sub-graphs, and with them the cost per bound.
    chosen = random.Random(spec["base_seed"]).sample(
        range(len(base.received)), spec["sample"]
    )
    trace = perturb(base, rng)
    sample = sorted(trace.received[i].packet_id for i in chosen)
    save_trace(trace, out / "trace.json")
    (out / "sample.json").write_text(
        json.dumps([[pid.source, pid.seqno] for pid in sample])
    )
    _save_warmup(out, size, rng)
    return {
        "nodes": spec["nodes"],
        "simulated_s": spec["duration_s"],
        **packet_properties(trace.received),
        "sample_packets": len(sample),
        "lp_targets": lp_targets(trace.received, sample),
        "graph_cut_size": spec["cut"],
        "warmup_graph_cut_size": size["warmup"]["cut"],
    }


def generate_serve(out: Path, seed: int, size: dict) -> dict:
    from repro.sim.io import save_trace

    spec = size["serve-live"]
    rng = random.Random(f"serve-live:{seed}")
    shift = float(rng.randrange(0, MAX_SHIFT_MS))
    streams = {}
    for index in range(spec["streams"]):
        trace = perturb(
            simulate(
                spec["nodes"], spec["duration_s"], spec["base_seed"] + index
            ),
            rng,
            shift,
        )
        name = f"sink{index}-{rng.randrange(16 ** 6):06x}"
        save_trace(trace, out / f"{name}.json")
        streams[name] = trace
    _save_warmup(out, size, rng)
    (out / "streams.json").write_text(json.dumps(sorted(streams)))
    everything = [p for trace in streams.values() for p in trace.received]
    return {
        "streams": len(streams),
        "nodes_per_stream": spec["nodes"],
        "simulated_s": spec["duration_s"],
        **packet_properties(everything),
        "records_per_stream": {
            name: len(trace.received) for name, trace in streams.items()
        },
        "batch_window_span_ms": {
            name: window_plan(trace.received)["window_span_ms"]
            for name, trace in streams.items()
        },
    }


GENERATORS = {
    "batch-estimate": generate_batch,
    "bounds-sample": generate_bounds,
    "serve-live": generate_serve,
}


def generate(workload: str, seed: int, out: Path, size: str) -> dict:
    """Write one workload's inputs and manifest into ``out``."""
    import_program()
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "workload": workload,
        "seed": seed,
        "size": size,
        **GENERATORS[workload](out, seed, SIZES[size]),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, Path(args.out), args.size)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
