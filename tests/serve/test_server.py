"""End-to-end tests of the asyncio reconstruction server.

Run a real server (unix socket, background thread) and speak the wire
protocol through real sockets — parity, backpressure, admission,
eviction, and the SIGTERM drain (as a subprocess, the way an operator
would hit it).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.serve.client import connect
from repro.serve.protocol import MAX_LINE_BYTES
from repro.serve.server import (
    ReconstructionServer,
    ServerHandle,
    run_in_thread,
)
from repro.sim import NetworkConfig, simulate_network
from repro.stream.engine import StreamingReconstructor


def _packets(seed=7, duration_ms=20_000.0):
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=duration_ms,
            packet_period_ms=2_500.0,
            seed=seed,
        )
    )
    return sorted(trace.received, key=lambda p: p.sink_arrival_ms)


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "domo.sock")


def _serve(sock_path, **kwargs):
    return run_in_thread(
        ReconstructionServer(DomoConfig(), socket_path=sock_path, **kwargs)
    )


def test_concurrent_sharded_ingest_matches_batch_bit_for_bit(sock_path):
    """The acceptance criterion: any sharding/interleaving across
    concurrent connections yields batch-identical results."""
    packets = _packets()
    batch = DomoReconstructor(DomoConfig()).estimate(packets)
    handle = _serve(sock_path)
    try:
        failures = []

        def feed(shard):
            try:
                with connect(socket_path=sock_path) as client:
                    client.send_packets(shard, stream="s")
                    assert client.health()["ok"]
                    failures.extend(client.async_errors)
            except Exception as exc:  # noqa: BLE001
                failures.append(exc)

        threads = [
            threading.Thread(target=feed, args=(packets[i::3],))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures, failures
        with connect(socket_path=sock_path) as query:
            reply = query.flush("s")
            assert reply["ok"], reply
            served = query.estimates("s")
    finally:
        report = handle.stop()
    assert served == batch.estimates  # bit-identical floats
    # The shutdown report is schema-valid with near-total coverage.
    assert report.span_coverage >= 0.95
    from repro.obs.report import validate_report

    assert validate_report(report.to_dict()) == []


def test_results_since_is_incremental(sock_path):
    packets = _packets()
    handle = _serve(sock_path)
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets, stream="s")
            client.flush("s")
            full = client.results("s")
            assert full["ok"] and full["count"] >= 2
            cursor = full["windows"][0]["solve_index"]
            rest = client.results("s", since=cursor)
            assert rest["count"] == full["count"] - 1
            assert all(
                w["solve_index"] > cursor for w in rest["windows"]
            )
            # Caught-up cursor: empty page, cursor unchanged.
            done = client.results("s", since=full["last_solve_index"])
            assert done["count"] == 0
            assert done["last_solve_index"] == full["last_solve_index"]
    finally:
        handle.stop()


#: the burst tests send a 40 s trace in one go at this lateness: its
#: first ingested batch seals more windows than the solver pool keeps
#: in flight (two, serially).
BURST_LATENESS_MS = 2_000.0


def _burst_reference(packets):
    """The stream engine's estimates for the burst, fed in one call."""
    estimates = {}
    with StreamingReconstructor(
        DomoConfig(), lateness_ms=BURST_LATENESS_MS
    ) as engine:
        engine.ingest(packets)
        for committed in engine.poll() + engine.flush():
            estimates.update(committed.estimates)
    return estimates


def _stream_stats(client, stream, records, timeout=30.0):
    """The stream's STATS entry once ``records`` records are ingested."""
    deadline = time.monotonic() + timeout
    while True:
        entry = client.stats()["streams"].get(stream)
        if entry is not None and entry["records_in"] >= records:
            return entry
        assert time.monotonic() < deadline, entry
        time.sleep(0.02)


def test_results_lists_every_sealed_window_without_a_next_record(sock_path):
    packets = _packets(duration_ms=40_000.0)
    handle = _serve(sock_path, lateness_ms=BURST_LATENESS_MS)
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets, stream="s")
            _stream_stats(client, "s", len(packets))
            listed = client.results("s")["count"]
            entry = client.stats()["streams"]["s"]
            assert entry["backlog"] == 0, entry
            assert listed == entry["windows_committed"] > 2
            assert client.flush("s")["ok"]
            served = client.estimates("s")
    finally:
        handle.stop()
    assert served == _burst_reference(packets)


def test_results_reads_commit_parallel_solves_without_a_next_record(
    sock_path,
):
    packets = _packets(duration_ms=40_000.0)
    handle = run_in_thread(
        ReconstructionServer(
            DomoConfig(parallel=True, max_workers=2),
            socket_path=sock_path,
            lateness_ms=BURST_LATENESS_MS,
        )
    )
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets, stream="s")
            entry = _stream_stats(client, "s", len(packets))
            deadline = time.monotonic() + 30.0
            while entry["backlog"]:
                assert time.monotonic() < deadline, entry
                time.sleep(0.01)
                client.results("s")
                entry = client.stats()["streams"]["s"]
            assert client.results("s")["count"] == entry["windows_committed"]
            assert client.flush("s")["ok"]
            served = client.estimates("s")
    finally:
        handle.stop()
    assert served == _burst_reference(packets)


def test_overlong_line_closes_only_its_own_connection(sock_path):
    packets = _packets()
    handle = _serve(sock_path)
    try:
        with connect(socket_path=sock_path) as feeder:
            feeder.send_packets(packets[:20], stream="s")
            with connect(socket_path=sock_path) as hostile:
                hostile._sock.sendall(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                reply = json.loads(hostile._rfile.readline())
                assert reply == {
                    "ok": False, "error": "line too long", "fatal": True
                }
                assert hostile._rfile.readline() == b""  # closed
            feeder.send_packets(packets[20:], stream="s")
            assert feeder.flush("s")["ok"]
            with connect(socket_path=sock_path) as query:
                served = query.estimates("s")
            assert not feeder.async_errors
    finally:
        handle.stop()
    batch = DomoReconstructor(DomoConfig()).estimate(packets)
    assert served == batch.estimates


def test_unknown_stream_and_bad_commands_get_error_lines(sock_path):
    handle = _serve(sock_path)
    try:
        with connect(socket_path=sock_path) as client:
            assert client.health()["ok"]
            reply = client.results("nope")
            assert not reply["ok"] and "unknown stream" in reply["error"]
            reply = client.flush("nope")
            assert not reply["ok"]
            reply = client.command("FROBNICATE now")
            assert not reply["ok"] and "unknown command" in reply["error"]
            reply = client.command("RESULTS s --since elephants")
            assert not reply["ok"]
    finally:
        handle.stop()


def test_malformed_records_get_async_errors_without_killing_the_feed(
    sock_path,
):
    packets = _packets()
    handle = _serve(sock_path)
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets[:5], stream="s")
            client._sock.sendall(b'{"garbage": true}\n')
            client._sock.sendall(b"{not json at all\n")
            client.send_packets(packets[5:10], stream="s")
            reply = client.health()
            assert reply["ok"]
            assert len(client.async_errors) == 2
            stats = client.stats()
            assert stats["server"]["records_accepted"] == 10
            assert stats["server"]["records_rejected"] == 2
    finally:
        handle.stop()


def test_max_sessions_rejection_over_the_wire(sock_path):
    packets = _packets()
    handle = _serve(sock_path, max_sessions=1)
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets[:3], stream="allowed")
            client.send_packets(packets[3:6], stream="refused")
            reply = client.health()
            assert reply["ok"]
            assert len(client.async_errors) == 3
            for error in client.async_errors:
                assert "session limit reached" in error["error"]
                assert error["stream"] == "refused"
            stats = client.stats()
            assert stats["sessions_rejected"] >= 1
            assert "refused" not in stats["streams"]
            # The connection and the admitted stream still work.
            assert client.flush("allowed")["ok"]
    finally:
        handle.stop()


def test_backpressure_bounds_the_queue_and_drops_nothing(sock_path):
    """With a tiny queue and an artificially slow engine, the reader
    parks instead of buffering unboundedly — queue depth stays at or
    under capacity (observable via STATS) and every record sent is
    eventually ingested."""
    packets = _packets()
    capacity = 4
    handle = _serve(sock_path, queue_capacity=capacity, chunk=2)
    server = handle.server
    try:
        with connect(socket_path=sock_path) as primer:
            primer.send_packets(packets[:1], stream="s")
            assert primer.health()["ok"]
        lane = server._lanes["s"]
        real_ingest = lane.session.ingest

        def slow_ingest(batch):
            time.sleep(0.01)
            real_ingest(batch)

        lane.session.ingest = slow_ingest

        depths = []
        stop = threading.Event()

        def watch():
            with connect(socket_path=sock_path) as monitor:
                while not stop.is_set():
                    stats = monitor.stats()
                    entry = stats["streams"].get("s", {})
                    depths.append(entry.get("queue_depth", 0))
                    time.sleep(0.005)

        watcher = threading.Thread(target=watch)
        watcher.start()
        try:
            with connect(socket_path=sock_path) as feeder:
                feeder.send_packets(packets[1:], stream="s")
                assert feeder.health()["ok"]
                assert feeder.async_errors == []
        finally:
            stop.set()
            watcher.join()
        with connect(socket_path=sock_path) as query:
            query.flush("s")
            stats = query.stats()
    finally:
        handle.stop()
    assert max(depths) <= capacity, depths
    assert max(depths) > 0, "backpressure never engaged"
    assert stats["server"]["records_accepted"] == len(packets)
    assert stats["server"]["records_rejected"] == 0
    assert stats["streams"]["s"]["records_in"] == len(packets)


def test_disconnect_evicts_and_results_stay_queryable(sock_path):
    packets = _packets()
    handle = _serve(sock_path)
    server = handle.server
    try:
        with connect(socket_path=sock_path) as feeder:
            feeder.send_packets(packets, stream="s")
            assert feeder.health()["ok"]
        # Last owner gone: the server flushes and drains the session.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            if server.manager.get("s") and server.manager.get("s").drained:
                break
            time.sleep(0.05)
        with connect(socket_path=sock_path) as query:
            stats = query.stats()
            assert stats["sessions_evicted"] == 1
            assert stats["streams"]["s"]["drained"] is True
            served = query.estimates("s")
            assert served  # flushed results remain queryable
            # New records for the drained stream are refused.
            query.send_packets(packets[:1], stream="s")
            assert query.health()["ok"]
            assert any(
                "drained" in e["error"] for e in query.async_errors
            )
    finally:
        handle.stop()
    batch = DomoReconstructor(DomoConfig()).estimate(packets)
    assert served == batch.estimates  # eviction flush is still parity


def test_strict_validation_poison_fails_lane_without_wedging(sock_path):
    """A parseable-but-invalid record under ``--validate strict`` raises
    inside the engine, on the pump. The lane must fail closed — error
    lines, discarding pump, clean FLUSH error — instead of killing the
    pump and wedging backpressure, eviction, and shutdown forever."""
    from repro.core.validation import ValidationConfig
    from repro.serve.protocol import encode_record

    packets = _packets()
    config = DomoConfig(validation=ValidationConfig(mode="strict"))
    handle = run_in_thread(
        ReconstructionServer(
            config, socket_path=sock_path, queue_capacity=4, chunk=2
        )
    )
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets[:5], stream="s")
            assert client.health()["ok"]
            # json.loads turns 1e999 into inf: the record parses on the
            # wire but strict validation rejects it inside the engine.
            row = json.loads(encode_record("s", packets[5]))
            row["t0"] = 1e999
            client._sock.sendall((json.dumps(row) + "\n").encode())
            # A flood behind the poison: without failure handling the
            # pump dies, the tiny queue fills, and this reader parks
            # forever (the HEALTH below would never get a reply).
            client.send_packets(packets[6:40], stream="s")
            assert client.health()["ok"]
            deadline = time.time() + 30.0
            while time.time() < deadline:
                stats = client.stats()
                if stats["streams"]["s"]["failed"]:
                    break
                time.sleep(0.02)
            assert "TraceValidationError" in stats["streams"]["s"]["failed"]
            # Records after the failure are refused with the reason.
            client.send_packets(packets[40:41], stream="s")
            assert client.health()["ok"]
            assert any(
                "failed" in e["error"] for e in client.async_errors
            )
            # FLUSH reports the failure instead of raising opaquely.
            reply = client.flush("s")
            assert not reply["ok"] and "failed" in reply["error"]
    finally:
        report = handle.stop()  # the regression: this must not wedge
    assert report is not None


def test_record_racing_an_eviction_is_refused_not_silently_lost(sock_path):
    """The eviction flush runs on a worker thread and only flips
    ``drained`` at the very end. A record arriving in that window must
    get an error line (accounted loss), not be accepted and ingested
    into the drained engine — and a later FLUSH must answer cleanly."""
    packets = _packets()
    handle = _serve(sock_path)
    server = handle.server
    try:
        real_evict = server.manager.evict
        started = threading.Event()
        release = threading.Event()

        def slow_evict(session):
            started.set()
            release.wait(30.0)
            real_evict(session)

        server.manager.evict = slow_evict
        try:
            with connect(socket_path=sock_path) as feeder:
                feeder.send_packets(packets, stream="s")
                assert feeder.health()["ok"]
            # Last owner gone: eviction starts (and parks in slow_evict
            # with the flush not yet run, drained still False).
            assert started.wait(30.0)
            with connect(socket_path=sock_path) as late:
                late.send_packets(packets[:3], stream="s")
                assert late.health()["ok"]
                assert len(late.async_errors) == 3
                assert all(
                    "drained" in e["error"] for e in late.async_errors
                )
        finally:
            release.set()
        deadline = time.time() + 30.0
        while time.time() < deadline:
            session = server.manager.get("s")
            if session is not None and session.drained:
                break
            time.sleep(0.02)
        with connect(socket_path=sock_path) as query:
            reply = query.flush("s")  # no KeyError from a released lane
            assert reply["ok"] and reply["drained"] is True
            served = query.estimates("s")
    finally:
        handle.stop()
    batch = DomoReconstructor(DomoConfig()).estimate(packets)
    assert served == batch.estimates  # refused stragglers changed nothing


def test_nonfinite_response_value_yields_error_line_not_dead_socket(
    sock_path,
):
    packets = _packets()
    handle = _serve(sock_path)
    server = handle.server
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets, stream="s")
            assert client.flush("s")["ok"]
            session = server.manager.get("s")
            row = session.results[0]
            key = next(iter(row["estimates"]))
            original = row["estimates"][key]
            row["estimates"][key] = float("nan")
            reply = client.results("s")
            assert not reply["ok"]
            assert "strict JSON" in reply["error"]
            # The connection survives and recovers.
            assert client.health()["ok"]
            row["estimates"][key] = original
            assert client.results("s")["ok"]
    finally:
        handle.stop()


def test_sigterm_drains_every_open_window_and_writes_report(tmp_path):
    """Operator-level drain: SIGTERM mid-ingest (connection still open,
    nothing flushed) must seal/solve/commit every window and write a
    valid run report before exit."""
    packets = _packets()
    sock = str(tmp_path / "drain.sock")
    report_path = str(tmp_path / "report.json")
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(repo_src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--socket", sock, "--metrics-out", report_path,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.time() + 30.0
        while not os.path.exists(sock):
            assert time.time() < deadline, "server socket never appeared"
            assert proc.poll() is None, proc.communicate()[1]
            time.sleep(0.05)
        client = connect(socket_path=sock)
        client.send_packets(packets[::2], stream="a")
        client.send_packets(packets[1::2], stream="b")
        assert client.health()["ok"]  # sync: all records are ingested
        proc.send_signal(signal.SIGTERM)
        stderr = proc.communicate(timeout=120)[1]
        assert proc.returncode == 0, stderr
        client.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    from repro.obs.report import validate_report

    assert validate_report(report) == []
    assert report["command"] == "serve"
    assert report["span_coverage"] >= 0.95
    streams = report["stats"]["streams"]
    assert set(streams) == {"a", "b"}
    for entry in streams.values():
        assert entry["drained"] is True
        assert entry["backlog"] == 0
        assert entry["windows_committed"] > 0
    total = sum(e["records_in"] for e in streams.values())
    assert total == len(packets)


def test_shutdown_settles_eviction_of_a_connection_closing_meanwhile(
    tmp_path, monkeypatch
):
    """A connection whose close is still in flight when the shutdown
    drain starts must be settled, eviction included, before the drain
    goes on to close the sessions: a later eviction would race the
    shutdown drain, and both would close the stream's WAL. The
    connection's close is held until ``_close_connections`` has
    gathered, so the eviction can only come first if the drain waits
    for that connection."""
    import asyncio

    from repro.serve.durability import DurabilityConfig, stream_state_dir
    from repro.serve.durability.recovery import BATCH_RECORD, iter_wal_batches

    packets = _packets()
    wal_dir = tmp_path / "wal"
    server = ReconstructionServer(
        DomoConfig(),
        socket_path=str(tmp_path / "race.sock"),
        durability=DurabilityConfig(wal_dir=wal_dir),
    )
    events: list[str] = []
    closing = threading.Event()
    gathered = threading.Event()
    wait_closed = asyncio.StreamWriter.wait_closed

    async def held_wait_closed(writer):
        closing.set()
        while not gathered.is_set():
            await asyncio.sleep(0.005)
        return await wait_closed(writer)

    monkeypatch.setattr(asyncio.StreamWriter, "wait_closed", held_wait_closed)
    close_connections = server._close_connections
    evict = server.manager.evict

    async def close_then_release():
        await close_connections()
        events.append("gathered")
        gathered.set()

    def logged_evict(session):
        events.append("evict")
        evict(session)

    server._close_connections = close_then_release
    server.manager.evict = logged_evict
    handle = run_in_thread(server)
    try:
        with connect(socket_path=server.socket_path) as feeder:
            feeder.send_packets(packets, stream="s")
            assert feeder.health()["ok"]
        assert closing.wait(10.0), "the server never closed the connection"
    finally:
        report = handle.stop()  # raises if the server exited with an error
    assert report is not None
    assert events == ["evict", "gathered"]
    assert server.manager.get("s").drained
    logged = [
        (item["id"], item["t0"])
        for _, record in iter_wal_batches(stream_state_dir(wal_dir, "s"))
        if record["t"] == BATCH_RECORD
        for item in record["packets"]
    ]
    assert sorted(logged) == sorted(
        ([p.packet_id.source, p.packet_id.seqno], p.generation_time_ms)
        for p in packets
    )


def test_server_stats_is_safe_under_concurrent_ingest(tmp_path):
    """Satellite: ``ReconstructionServer.stats()`` (used by STATS and
    the shutdown report) must tolerate sessions appearing/evicting on
    other threads — hammer it during a live multi-stream feed."""
    sock = str(tmp_path / "domo.sock")
    server = ReconstructionServer(DomoConfig(), socket_path=sock)
    handle = ServerHandle(server).start()
    packets = _packets()[:80]
    stop = threading.Event()
    errors = []

    def hammer():
        while not stop.is_set():
            try:
                snapshot = server.stats()
                json.dumps(snapshot)  # fully materialized + serializable
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)
                return

    thread = threading.Thread(target=hammer)
    thread.start()
    try:
        with connect(socket_path=sock) as client:
            for i in range(8):
                client.send_packets(packets, stream=f"h-{i}")
                assert client.flush(f"h-{i}")["ok"]
    finally:
        stop.set()
        thread.join()
        handle.stop()
    assert not errors, errors


def test_client_close_is_idempotent(tmp_path):
    sock = str(tmp_path / "domo.sock")
    handle = run_in_thread(
        ReconstructionServer(DomoConfig(), socket_path=sock)
    )
    try:
        client = connect(socket_path=sock)
        assert client.health()["ok"]
        client.close()
        assert client.closed
        client.close()  # second close: no-op, no raise
        assert client.closed
    finally:
        handle.stop()


def test_client_reconnect_deadline_bounds_total_retry_time(tmp_path):
    sock = str(tmp_path / "domo.sock")
    handle = run_in_thread(
        ReconstructionServer(DomoConfig(), socket_path=sock)
    )
    client = connect(socket_path=sock)
    assert client.health()["ok"]
    handle.stop()  # server gone; the socket path is unlinked
    start = time.monotonic()
    with pytest.raises((TimeoutError, ConnectionError, OSError)):
        # Without the deadline, 50 retries at 0.2 s backoff would block
        # for >= 10 s; the deadline caps the whole attempt.
        client.reconnect(retries=50, backoff_s=0.2, deadline_s=0.8)
    assert time.monotonic() - start < 5.0
    client.close()
