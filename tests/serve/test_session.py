"""Tests of session lifecycle: admission, eviction, drain, parity."""

import pytest

from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.serve.session import SessionLimitError, SessionManager
from repro.sim import NetworkConfig, simulate_network


def _packets():
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=2_500.0,
            seed=7,
        )
    )
    return sorted(trace.received, key=lambda p: p.sink_arrival_ms)


def test_session_flush_is_bit_identical_to_batch():
    packets = _packets()
    batch = DomoReconstructor(DomoConfig()).estimate(packets)
    manager = SessionManager(DomoConfig())
    session = manager.get_or_create("s")
    # Shard the ingest arbitrarily: lateness=inf defers all sealing.
    for lo in range(0, len(packets), 13):
        session.ingest(packets[lo:lo + 13])
    session.flush()
    manager.close()
    merged = {}
    from repro.serve.protocol import arrival_key_of

    for row in session.results:
        for text, value in row["estimates"].items():
            merged[arrival_key_of(text)] = value
    assert merged == batch.estimates  # bit-identical floats


def test_max_sessions_rejects_with_clean_error():
    manager = SessionManager(DomoConfig(), max_sessions=1)
    manager.get_or_create("first")
    with pytest.raises(SessionLimitError, match="session limit reached"):
        manager.get_or_create("second")
    assert manager.sessions_rejected == 1
    # The existing session is still reachable (idempotent lookup).
    assert manager.get_or_create("first") is manager.get("first")
    manager.close()


def test_drained_sessions_free_their_admission_slot():
    packets = _packets()
    manager = SessionManager(DomoConfig(), max_sessions=1)
    first = manager.get_or_create("first")
    first.ingest(packets[:40])
    first.add_owner(7)
    orphaned = manager.disconnect(7)
    assert orphaned == [first]
    manager.evict(first)
    assert first.drained
    assert manager.sessions_evicted == 1
    assert manager.active_sessions == 0
    # Results survive eviction; the slot is free for a new stream.
    assert first.results, "eviction must flush and keep results"
    second = manager.get_or_create("second")
    assert second is not first
    manager.close()


def test_disconnect_only_orphans_when_last_owner_leaves():
    manager = SessionManager(DomoConfig())
    session = manager.get_or_create("s")
    session.add_owner(1)
    session.add_owner(2)
    assert manager.disconnect(1) == []
    assert manager.disconnect(2) == [session]
    # A connection that never fed the stream orphans nothing.
    assert manager.disconnect(99) == []
    manager.close()


def test_drain_all_commits_every_sealed_window():
    packets = _packets()
    manager = SessionManager(DomoConfig(), max_sessions=4)
    for index, stream in enumerate(("a", "b")):
        session = manager.get_or_create(stream)
        session.ingest(packets[index::2])
    committed = manager.drain_all()
    assert committed > 0
    for stream in ("a", "b"):
        session = manager.get(stream)
        assert session.drained
        assert session.engine.backlog == 0
        assert session.results
    # Idempotent: a second drain has nothing left to commit.
    assert manager.drain_all() == 0
    manager.close()


def test_double_drain_and_post_drain_queries_are_safe():
    packets = _packets()
    manager = SessionManager(DomoConfig())
    session = manager.get_or_create("s")
    session.ingest(packets[:30])
    session.drain()
    rows = session.results_since(-1)
    session.drain()  # no-op
    assert session.results_since(-1) == rows
    since = rows[0]["solve_index"] if rows else -1
    assert all(
        row["solve_index"] > since for row in session.results_since(since)
    )
    manager.close()


def test_merged_registry_aggregates_sessions_and_pool():
    packets = _packets()
    manager = SessionManager(DomoConfig())
    for index, stream in enumerate(("a", "b")):
        session = manager.get_or_create(stream)
        session.ingest(packets[index::2])
    manager.drain_all()
    merged = manager.merged_registry().snapshot()
    # Solver-side counters come from the pool registry...
    assert merged["counters"].get("executor.drained", 0) > 0
    # ...and per-stream ingest gauges from the session registries.
    assert "stream.ingested" in merged["gauges"]
    manager.close()


def test_manager_stats_shape():
    manager = SessionManager(DomoConfig(), max_sessions=8)
    session = manager.get_or_create("s")
    session.add_owner(1)
    stats = manager.stats()
    assert stats["max_sessions"] == 8
    assert stats["active_sessions"] == 1
    assert stats["pool"]["mode"] == "serial"
    entry = stats["streams"]["s"]
    assert entry["owners"] == 1
    assert entry["drained"] is False
    manager.close()


def test_drain_survives_a_failing_flush_and_still_releases():
    """A broken engine (strict-validation rejection mid-stream) must not
    wedge eviction or shutdown: drain records the failure, marks the
    session drained, and manager.close() still completes."""
    packets = _packets()
    manager = SessionManager(DomoConfig())
    session = manager.get_or_create("s")
    session.ingest(packets[:30])

    def exploding_flush():
        raise ValueError("engine broken")

    session.flush = exploding_flush
    session.drain()
    assert session.drained is True
    assert "engine broken" in session.failed
    assert manager.stats()["streams"]["s"]["failed"] == session.failed
    manager.close()  # completes despite the failed session


def _scanned(session, since):
    """RESULTS' rows as a scan over every row would pick them."""
    return [row for row in session.results if row["solve_index"] > since]


def _assert_slices_like_a_scan(session):
    assert session.results, "the cursors need committed rows"
    for since in range(-3, len(session.results) + 3):
        assert session.results_since(since) == _scanned(session, since)


def test_results_since_slices_like_a_scan_live_and_restored(tmp_path):
    from repro.serve.durability import DurabilityConfig

    packets = _packets()

    def manager():
        return SessionManager(
            DomoConfig(),
            lateness_ms=2_000.0,
            durability=DurabilityConfig(wal_dir=tmp_path / "wal"),
        )

    live = manager()
    session = live.get_or_create("s")
    for lo in range(0, len(packets), 16):
        session.ingest(packets[lo:lo + 16])
    _assert_slices_like_a_scan(session)
    assert session.snapshot()
    rows = list(session.results)
    # Abandoned undrained: the next manager restores the snapshot.
    session._durability.close()
    live.pool.close()

    restored = manager()
    try:
        summary = restored.recover_all()["s"]
        assert summary["wal_records_replayed"] == 0
        session = restored.get("s")
        assert session.results == rows
        _assert_slices_like_a_scan(session)
    finally:
        restored.close()


def test_a_window_absorbed_out_of_order_raises():
    from types import SimpleNamespace

    packets = _packets()
    manager = SessionManager(DomoConfig(), lateness_ms=2_000.0)
    session = manager.get_or_create("s")
    session.ingest(packets)
    assert session.results
    row = len(session.results)
    with pytest.raises(RuntimeError, match=f"committed as row {row}"):
        session._absorb([SimpleNamespace(solve_index=row + 1)])
    assert len(session.results) == row
    manager.close()
