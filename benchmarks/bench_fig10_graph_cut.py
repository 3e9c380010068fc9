"""Figure 10: impact of the graph cut size (paper §VI.C).

The cut size is the number of constraint-graph vertices extracted around
each bound target. Expected shape (paper Fig. 10): larger cuts give
(weakly) tighter bounds but cost more time per bound; the paper settles
on 10000 at ~192 ms per bound. Default cut sizes are scaled to the
smaller default trace (whose constraint graph has fewer vertices than
5000); REPRO_FULL=1 uses the paper's 5000-20000.
"""

from benchmarks.conftest import BOUND_SAMPLE, FIG10_CUTS, simulated_trace
from repro.analysis.experiments import evaluate_domo_bounds
from repro.analysis.tables import format_sweep_table
from repro.core.pipeline import DomoConfig


#: the methods a bound can come from, recorded per cut for the gate.
METHODS = ("lp", "lp_relaxed", "interval")


def _cut_sweep(trace, cuts=FIG10_CUTS, sample=BOUND_SAMPLE, methods=None):
    """Rows of (cut, mean bound width, ms per bound); with ``methods``,
    also fills it with cut -> bounds per method."""
    rows = []
    for cut in cuts:
        config = DomoConfig(graph_cut_size=cut)
        widths, per_bound_ms, cut_methods = evaluate_domo_bounds(
            trace, domo_config=config, max_packets=sample
        )
        rows.append([cut, widths.mean, per_bound_ms])
        if methods is not None:
            methods[cut] = cut_methods
    return rows


def test_fig10_graph_cut(benchmark, fig6_trace):
    rows = benchmark.pedantic(
        _cut_sweep,
        args=(fig6_trace,),
        kwargs={"sample": max(20, BOUND_SAMPLE // 2)},
        rounds=1,
        iterations=1,
    )
    print()
    print(format_sweep_table(
        ["cut_size", "domo_bound_ms", "ms_per_bound"], rows
    ))
    print("paper: tighter bounds with larger cuts; ~192 ms/bound at 10000")
    widths = [r[1] for r in rows]
    # Shape: the largest cut is at least as tight as the smallest.
    assert widths[-1] <= widths[0] + 1e-6


def main() -> None:
    from benchmarks.harness import BenchHarness

    trace = simulated_trace()
    print(f"trace: {trace.num_received} packets\n")
    with BenchHarness(
        "fig10_graph_cut", config={"cuts": list(FIG10_CUTS)}
    ) as bench:
        methods: dict = {}
        rows = _cut_sweep(trace, methods=methods)
        bench.record(bound_widths_ms={str(r[0]): r[1] for r in rows})
        # Integer parity for the perf gate: LP targets (the same at
        # every cut) and, per cut, how many bounds each method gave.
        bench.record(
            lp_targets=sum(methods[FIG10_CUTS[0]].values()),
            **{
                f"bounds_{method}_cut{cut}": counts.get(method, 0)
                for cut, counts in methods.items()
                for method in METHODS
            },
        )
    print(format_sweep_table(
        ["cut_size", "domo_bound_ms", "ms_per_bound"], rows
    ))


if __name__ == "__main__":
    main()
