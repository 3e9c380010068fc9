"""Tests of the parallel window-solve engine."""

import pytest

from repro.core.constraints import ConstraintConfig
from repro.backends.domo_qp import estimate_arrival_times_info
from repro.core.preprocessor import build_window_systems
from repro.optim.result import SolverError, SolverStatus
from repro.runtime.executor import (
    MIDPOINT_RUNG,
    RELAXATION_LADDER,
    WindowSolveSpec,
    execute_windows,
    resolve_worker_count,
    solve_one_window,
)

from tests.core.conftest import make_received


def _stream(num_sources=4, packets_per_source=12, period=500.0):
    """Periodic two-hop traffic through forwarder 1 (interior unknowns)."""
    received = []
    for source in range(2, 2 + num_sources):
        for seqno in range(packets_per_source):
            t0 = seqno * period + source * 17.0
            packet, _ = make_received(
                source, seqno, (source, 1, 0), (t0, t0 + 10.0, t0 + 20.0)
            )
            received.append(packet)
    return received


def _systems(span_ms=2_000.0):
    return build_window_systems(
        _stream(), ConstraintConfig(), window_span_ms=span_ms
    )


def test_serial_and_parallel_results_identical():
    systems = _systems()
    assert len(systems) >= 2
    spec = WindowSolveSpec()
    serial = execute_windows(systems, spec, parallel=False)
    parallel = execute_windows(systems, spec, parallel=True, max_workers=2)
    assert serial.mode == "serial"
    assert parallel.mode == "parallel"
    assert parallel.workers == 2
    assert len(serial.results) == len(parallel.results)
    for left, right in zip(serial.results, parallel.results):
        assert left.window_index == right.window_index
        assert left.estimates == right.estimates  # bit-identical floats
        assert left.telemetry.solver == right.telemetry.solver
        assert left.telemetry.status == right.telemetry.status


def test_results_come_back_in_window_order():
    systems = _systems()
    report = execute_windows(
        systems, WindowSolveSpec(), parallel=True, max_workers=2
    )
    assert [r.window_index for r in report.results] == list(
        range(len(systems))
    )


def test_single_window_runs_serially_even_when_parallel_requested():
    systems = _systems(span_ms=1e9)
    assert len(systems) == 1
    report = execute_windows(
        systems, WindowSolveSpec(), parallel=True, max_workers=4
    )
    assert report.mode == "serial"
    assert report.workers == 1
    assert report.fallback_reason is None


def test_max_workers_one_disables_the_pool():
    report = execute_windows(
        _systems(), WindowSolveSpec(), parallel=True, max_workers=1
    )
    assert report.mode == "serial"


def test_resolve_worker_count_caps():
    assert resolve_worker_count(10, max_workers=4) == 4
    assert resolve_worker_count(2, max_workers=16) == 2
    assert resolve_worker_count(5, max_workers=None) >= 1
    assert resolve_worker_count(0, max_workers=8) == 1


def test_solver_error_falls_back_to_interval_midpoints(monkeypatch):
    systems = _systems()
    ws = systems[0]

    def boom(system, config=None):
        raise SolverError(SolverStatus.NUMERICAL_ERROR, "forced failure")

    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info", boom
    )
    result = solve_one_window(0, ws, WindowSolveSpec())
    assert result.telemetry.solver == "fallback"
    assert result.telemetry.status == "fallback"
    # The whole ladder was walked before surrendering.
    assert result.telemetry.relax_rung == MIDPOINT_RUNG
    assert result.telemetry.relax_stage == "midpoints"
    assert result.telemetry.solve_attempts == 1 + len(RELAXATION_LADDER)
    # Kept estimates exist and equal the interval midpoints.
    assert result.estimates
    for key, value in result.estimates.items():
        lo, hi = ws.system.intervals[key]
        assert value == pytest.approx(0.5 * (lo + hi))
        assert key.packet_id in ws.kept_ids


def _failing_first_n(n):
    """A stand-in solver that fails its first ``n`` calls, then delegates."""
    calls = {"count": 0}

    def flaky(system, config=None):
        calls["count"] += 1
        if calls["count"] <= n:
            raise SolverError(SolverStatus.ITERATION_LIMIT, "forced")
        return estimate_arrival_times_info(system, config)

    return flaky


def test_relaxation_ladder_first_rung_drops_sum_upper(monkeypatch):
    """An infeasible full system re-solves without Eq. (6) rows."""
    systems = _systems()
    ws = systems[0]
    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info",
        _failing_first_n(1),
    )
    result = solve_one_window(0, ws, WindowSolveSpec())
    telemetry = result.telemetry
    assert telemetry.solver == "linearized"
    assert telemetry.relax_rung == 1
    assert telemetry.relax_stage == "drop_sum_upper"
    assert telemetry.solve_attempts == 2
    # A real solve happened: estimates are not interval midpoints.
    assert result.estimates
    midpoints = sum(
        result.estimates[key]
        == pytest.approx(0.5 * sum(ws.system.intervals[key]))
        for key in result.estimates
    )
    assert midpoints < len(result.estimates)


def test_relaxation_ladder_walks_to_order_only(monkeypatch):
    """Two more failures push the solve down to the order-only rung."""
    systems = _systems()
    ws = systems[0]
    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info",
        _failing_first_n(3),
    )
    result = solve_one_window(0, ws, WindowSolveSpec())
    telemetry = result.telemetry
    assert telemetry.solver == "linearized"
    assert telemetry.relax_rung == 3
    assert telemetry.relax_stage == "order_only"
    assert telemetry.solve_attempts == 4
    assert result.estimates


def test_relaxed_windows_surface_in_summary(monkeypatch):
    from repro.obs.solver_telemetry import summarize_telemetry

    systems = _systems()
    monkeypatch.setattr(
        "repro.backends.domo_qp.estimate_arrival_times_info",
        _failing_first_n(1),
    )
    report = execute_windows(systems, WindowSolveSpec())
    stats = summarize_telemetry([r.telemetry for r in report.results])
    assert stats["relaxed_windows"] == 1
    assert stats["relax_retries"] >= 1
    assert stats["relax_rung_histogram"].get("drop_sum_upper") == 1


def test_relaxation_ladder_tags_are_disjoint_families():
    """Each rung keeps strictly fewer constraint families than the last."""
    systems = _systems()
    builder = systems[0].system.builder
    sizes = [len(builder)]
    for _, keep in RELAXATION_LADDER:
        sizes.append(len(builder.filtered(keep)))
    assert sizes == sorted(sizes, reverse=True)
    # order rows are never dropped: the final rung is still nonempty.
    assert sizes[-1] > 0


def test_telemetry_records_solve_shape():
    systems = _systems()
    report = execute_windows(systems, WindowSolveSpec())
    for ws, result in zip(systems, report.results):
        telemetry = result.telemetry
        assert telemetry.num_packets == ws.num_packets
        assert telemetry.num_unknowns == ws.num_unknowns
        assert telemetry.num_kept == len(result.estimates)
        assert telemetry.solver == "linearized"
        assert telemetry.solve_time_s >= 0.0


def test_window_executor_serial_submit_drain():
    from repro.runtime.executor import WindowExecutor

    systems = _systems()
    executor = WindowExecutor(WindowSolveSpec(), parallel=False)
    try:
        for index, ws in enumerate(systems):
            executor.submit(index, ws)
        assert executor.in_flight == len(systems)
        results = executor.drain()
        assert executor.in_flight == 0
        # Serial submits solve inline, so results come in submit order.
        assert [r.window_index for r in results] == list(range(len(systems)))
        assert executor.drain() == []
    finally:
        executor.close()


def test_pool_crash_with_multiple_pending_windows_degrades_cleanly():
    """A broken pool fails every in-flight future at once; drain must
    re-solve each window exactly once serially instead of raising the
    KeyError the old pop-then-degrade sequence hit."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    from repro.runtime.executor import WindowExecutor

    systems = _systems()
    assert len(systems) >= 2
    serial = execute_windows(systems, WindowSolveSpec())
    executor = WindowExecutor(WindowSolveSpec(), parallel=True, max_workers=2)
    try:
        # Stage the crash directly: every submitted window in flight,
        # every future already failed — exactly what BrokenProcessPool
        # does to the pending map when a worker dies.
        for index, ws in enumerate(systems):
            future = Future()
            future.set_exception(BrokenProcessPool("worker died"))
            executor._pending[future] = (index, ws, executor.spec)
        results = executor.drain(block=True)
    finally:
        executor.close()
    assert executor.mode == "serial"
    assert "BrokenProcessPool" in (executor.fallback_reason or "")
    assert executor.in_flight == 0
    # No window lost, none solved twice.
    results.sort(key=lambda r: r.window_index)
    assert [r.window_index for r in results] == list(range(len(systems)))
    for left, right in zip(results, serial.results):
        assert left.estimates == right.estimates  # bit-identical floats


def test_pool_crash_keeps_already_completed_results():
    """Futures that finished before the crash keep their pool results;
    only failed/running windows are re-solved."""
    from concurrent.futures import Future
    from concurrent.futures.process import BrokenProcessPool

    from repro.runtime.executor import (
        WindowExecutor,
        solve_one_window,
    )

    systems = _systems()
    assert len(systems) >= 2
    executor = WindowExecutor(WindowSolveSpec(), parallel=True, max_workers=2)
    try:
        done_result = solve_one_window(0, systems[0], executor.spec)
        ok = Future()
        ok.set_result(done_result)
        executor._pending[ok] = (0, systems[0], executor.spec)
        for index, ws in enumerate(systems[1:], start=1):
            future = Future()
            future.set_exception(BrokenProcessPool("worker died"))
            executor._pending[future] = (index, ws, executor.spec)
        results = executor.drain(block=True)
    finally:
        executor.close()
    assert executor.mode == "serial"
    results.sort(key=lambda r: r.window_index)
    assert [r.window_index for r in results] == list(range(len(systems)))
    # The completed future's object came through untouched.
    assert any(r is done_result for r in results)


def test_window_executor_incremental_parallel_drain():
    """Streaming-style use: submit one at a time, drain non-blocking,
    block only at the end; results match a serial sweep exactly."""
    from repro.runtime.executor import WindowExecutor

    systems = _systems()
    serial = execute_windows(systems, WindowSolveSpec())
    executor = WindowExecutor(WindowSolveSpec(), parallel=True, max_workers=2)
    collected = []
    try:
        for index, ws in enumerate(systems):
            executor.submit(index, ws)
            collected.extend(executor.drain(block=False))
        collected.extend(executor.drain(block=True))
    finally:
        executor.close()
    assert executor.in_flight == 0
    collected.sort(key=lambda r: r.window_index)
    assert len(collected) == len(serial.results)
    for left, right in zip(collected, serial.results):
        assert left.window_index == right.window_index
        assert left.estimates == right.estimates  # bit-identical floats


@pytest.mark.parametrize("parallel", [False, True])
def test_concurrent_producers_share_one_executor(parallel):
    """Two streams interleave submit/drain from their own threads over a
    single executor: every window comes back exactly once, to some
    drainer, bit-identical to a serial sweep (the serve layer's shared
    solver pool relies on exactly this contract)."""
    import threading

    from repro.runtime.executor import WindowExecutor

    systems = _systems()
    assert len(systems) >= 2
    serial = execute_windows(systems, WindowSolveSpec())
    executor = WindowExecutor(
        WindowSolveSpec(), parallel=parallel, max_workers=2
    )
    collected: list = []
    lock = threading.Lock()
    errors: list = []

    def producer(offset):
        try:
            local = []
            for index in range(offset, len(systems), 2):
                executor.submit(index, systems[index])
                local.extend(executor.drain(block=False))
            local.extend(executor.drain(block=True))
            with lock:
                collected.extend(local)
        except BaseException as exc:  # surfaced to the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=producer, args=(k,)) for k in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    executor.close()
    assert not errors, errors
    assert executor.in_flight == 0
    # Exactly-once delivery across concurrent drains: no window lost,
    # none duplicated.
    indices = sorted(r.window_index for r in collected)
    assert indices == list(range(len(systems)))
    collected.sort(key=lambda r: r.window_index)
    for left, right in zip(collected, serial.results):
        assert left.estimates == right.estimates  # bit-identical floats
