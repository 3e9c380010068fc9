"""Unit tests for snapshot + WAL-suffix crash recovery at the
SessionManager level (no sockets, no subprocesses).

The invariant: a manager that crashed (abandoned without drain) and a
manager that never crashed, fed the same batches in the same order,
produce bit-identical committed rows — including on unsorted input with
a finite lateness watermark, where results *do* depend on batching and
recovery leans on the WAL recording exact ingest batches.
"""

import pytest

from repro.core.pipeline import DomoConfig
from repro.serve.durability import DurabilityConfig
from repro.serve.durability.recovery import (
    SnapshotConfigMismatchError,
    StreamDurability,
)
from repro.serve.session import SessionManager

from .crash_harness import make_packets

LATENESS_MS = 5_000.0
CHUNK = 16


def _batches(packets):
    return [
        packets[i:i + CHUNK] for i in range(0, len(packets), CHUNK)
    ]


def _manager(wal_dir=None, lateness_ms=LATENESS_MS, **durability_kwargs):
    durability = None
    if wal_dir is not None:
        durability = DurabilityConfig(
            wal_dir=wal_dir, snapshot_interval=3, **durability_kwargs
        )
    return SessionManager(
        DomoConfig(), lateness_ms=lateness_ms, durability=durability
    )


def _unsorted_packets():
    """Simulation-emission order: late packets interleaved, not
    sink-arrival sorted — the case where results depend on batching."""
    from repro.sim import NetworkConfig, simulate_network

    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=2_500.0,
            seed=11,
        )
    )
    return list(trace.received)


def test_replay_parity_on_unsorted_late_packet_stream(tmp_path):
    packets = _unsorted_packets()
    batches = _batches(packets)
    crash_after = len(batches) // 2

    # Uncrashed reference.
    ref = _manager()
    try:
        session = ref.get_or_create("s")
        for batch in batches:
            session.ingest(batch)
        session.flush()
        expected = list(session.results)
        expected_quarantined = session.engine.report.num_quarantined
    finally:
        ref.close()

    # Crashed run: feed half, abandon without flush or drain (closing
    # only the pool and the WAL file, so no OS resource leaks), recover
    # into a fresh manager, feed the rest.
    crashed = _manager(wal_dir=tmp_path / "wal")
    session = crashed.get_or_create("s")
    for batch in batches[:crash_after]:
        session.ingest(batch)
    crashed.pool.close()  # simulate death: no flush, no drain, no close
    session._durability.close()

    recovered = _manager(wal_dir=tmp_path / "wal")
    try:
        summary = recovered.recover_all()
        assert set(summary) == {"s"}
        assert summary["s"]["failed"] is None
        session = recovered.get(stream_id="s")
        # Resume from the durable record count — exactly the batches
        # the WAL already holds are skipped.
        durable = session.records_durable
        assert durable == sum(len(b) for b in batches[:crash_after])
        fed = 0
        for batch in batches:
            if fed + len(batch) > durable:
                session.ingest(batch)
            fed += len(batch)
        session.flush()
        assert session.results == expected
        assert session.engine.report.num_quarantined == expected_quarantined
    finally:
        recovered.close()


def test_recovery_uses_snapshot_and_replays_only_the_suffix(tmp_path):
    packets = make_packets()
    batches = _batches(packets)
    crashed = _manager(wal_dir=tmp_path / "wal")
    session = crashed.get_or_create("s")
    for batch in batches:
        session.ingest(batch)
    crashed.pool.close()
    session._durability.close()

    recovered = _manager(wal_dir=tmp_path / "wal")
    try:
        summary = recovered.recover_all()["s"]
        # snapshot_interval=3: a snapshot exists and bounds the replay.
        assert summary["snapshot_cursor"] is not None
        assert summary["snapshot_cursor"] >= 3
        assert 0 <= summary["wal_records_replayed"] < len(batches)
        assert summary["records_durable"] == len(packets)
    finally:
        recovered.close()


def test_snapshot_config_mismatch_is_a_named_refusal(tmp_path, monkeypatch):
    packets = make_packets()
    crashed = _manager(wal_dir=tmp_path / "wal")
    session = crashed.get_or_create("s")
    for batch in _batches(packets):
        session.ingest(batch)
    assert session.snapshot()  # ensure a snapshot exists to disagree with
    crashed.pool.close()
    session._durability.close()

    opened = []

    class RecordingDurability(StreamDurability):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            opened.append(self)

    monkeypatch.setattr(
        "repro.serve.session.StreamDurability", RecordingDurability
    )
    mismatched = _manager(wal_dir=tmp_path / "wal", lateness_ms=123.0)
    try:
        with pytest.raises(SnapshotConfigMismatchError, match="config"):
            mismatched.recover_all()
    finally:
        mismatched.pool.close()
    # The refusal closed the WAL writer it had opened.
    assert [d.stream_id for d in opened] == ["s"]
    assert opened[0].wal._file is None


def test_drained_stream_restores_drained_and_queryable(tmp_path):
    packets = make_packets()
    first = _manager(wal_dir=tmp_path / "wal")
    session = first.get_or_create("s")
    for batch in _batches(packets):
        session.ingest(batch)
    first.close()  # drains: final flush + drained snapshot
    expected = list(session.results)
    assert session.drained

    recovered = _manager(wal_dir=tmp_path / "wal")
    try:
        summary = recovered.recover_all()["s"]
        assert summary["drained"] is True
        session = recovered.get("s")
        assert session.drained
        assert session.results == expected
        assert session.results_since(-1) == expected
        # Drained sessions do not occupy an admission slot.
        assert recovered.active_sessions == 0
    finally:
        recovered.close()


def test_engine_failure_during_replay_is_contained(tmp_path):
    """A batch that deterministically fails the engine (strict
    validation) fails it again on replay — the stream comes back
    ``failed`` with its committed results queryable, instead of the
    whole server refusing to boot."""
    from repro.core.validation import ValidationConfig
    from repro.sim.trace import ReceivedPacket

    config = DomoConfig(validation=ValidationConfig(mode="strict"))
    packets = make_packets()
    poison = ReceivedPacket(
        packet_id=packets[0].packet_id,
        path=packets[0].path,
        generation_time_ms=float("inf"),  # impossible: strict raises
        sink_arrival_ms=packets[0].sink_arrival_ms,
        sum_of_delays_ms=packets[0].sum_of_delays_ms,
    )

    crashed = SessionManager(
        config,
        lateness_ms=LATENESS_MS,
        durability=DurabilityConfig(
            wal_dir=tmp_path / "wal", snapshot_interval=0
        ),
    )
    session = crashed.get_or_create("s")
    session.ingest(packets[:CHUNK])
    try:
        session.ingest([poison])
    except Exception as exc:  # noqa: BLE001 - the pump would contain this
        session.mark_failed(f"{type(exc).__name__}: {exc}")
    assert session.failed is not None
    crashed.pool.close()
    session._durability.close()

    recovered = SessionManager(
        config,
        lateness_ms=LATENESS_MS,
        durability=DurabilityConfig(
            wal_dir=tmp_path / "wal", snapshot_interval=0
        ),
    )
    try:
        summary = recovered.recover_all()["s"]
        assert summary["failed"] is not None
        assert "TraceValidationError" in summary["failed"]
        session = recovered.get("s")
        assert session.failed is not None
        assert session.results_since(-1) == session.results
    finally:
        recovered.close()
