"""Per-stream estimator backends through the serve tier.

The acceptance criterion of the backend subsystem: a served stream
opened with ``"backend": "mnt"`` returns MNT results while a concurrent
default (``domo-qp``) stream on the same server stays *bit-identical* to
a server that never saw an MNT stream. Plus the admission semantics (a
backend choice binds at stream open, conflicts are rejected, unknown
names never open a stream) and durability (a crashed MNT stream
recovers as an MNT stream; one opened under a backend this build does
not register fails recovery by name).
"""

import json
import threading

import pytest

from repro.core.pipeline import DomoConfig, DomoReconstructor
from repro.serve.client import connect
from repro.serve.durability import DurabilityConfig, stream_state_dir
from repro.serve.durability.recovery import RecoveryError
from repro.serve.server import ReconstructionServer, run_in_thread
from repro.serve.session import BackendMismatchError, SessionManager
from repro.sim import NetworkConfig, simulate_network


def _packets(seed=7):
    trace = simulate_network(
        NetworkConfig(
            num_nodes=16,
            placement="grid",
            duration_ms=20_000.0,
            packet_period_ms=2_500.0,
            seed=seed,
        )
    )
    return sorted(trace.received, key=lambda p: p.sink_arrival_ms)


@pytest.fixture
def sock_path(tmp_path):
    return str(tmp_path / "domo.sock")


# -- manager-level admission semantics ----------------------------------


def test_backend_binds_at_stream_open_and_conflicts_reject():
    manager = SessionManager(DomoConfig())
    try:
        session = manager.get_or_create("s", backend="mnt")
        assert session.backend == "mnt"
        assert session.config.backend == "mnt"
        # No choice on the wire, or the same choice again: the live
        # session answers.
        assert manager.get_or_create("s") is session
        assert manager.get_or_create("s", backend="mnt") is session
        with pytest.raises(BackendMismatchError, match="cannot switch"):
            manager.get_or_create("s", backend="domo-qp")
        # The default stream keeps the shared config object untouched.
        default = manager.get_or_create("d")
        assert default.backend == "domo-qp"
        assert default.config is manager.config
    finally:
        manager.close()


def test_unknown_backend_never_opens_a_stream():
    manager = SessionManager(DomoConfig())
    try:
        with pytest.raises(ValueError, match="not registered"):
            manager.get_or_create("s", backend="nope")
        assert manager.get("s") is None
    finally:
        manager.close()


def test_manager_runs_both_backends_without_contamination():
    packets = _packets()
    reference = DomoReconstructor(DomoConfig()).estimate(packets)

    manager = SessionManager(DomoConfig())
    try:
        qp = manager.get_or_create("qp")
        mnt = manager.get_or_create("mstream", backend="mnt")
        for lo in range(0, len(packets), 13):
            qp.ingest(packets[lo:lo + 13])
            mnt.ingest(packets[lo:lo + 13])
        manager.drain_all()
        assert manager.stats()["streams"]["qp"]["backend"] == "domo-qp"
        assert manager.stats()["streams"]["mstream"]["backend"] == "mnt"

        from repro.serve.protocol import arrival_key_of

        def merged(session):
            estimates = {}
            for row in session.results:
                for text, value in row["estimates"].items():
                    estimates[arrival_key_of(text)] = value
            return estimates

        qp_estimates, mnt_estimates = merged(qp), merged(mnt)
        # The domo-qp stream is bit-identical to a batch run — sharing
        # the pool with an MNT stream changed nothing.
        assert qp_estimates == reference.estimates
        # The MNT stream covered the same unknowns with its own values.
        assert set(mnt_estimates) == set(qp_estimates)
        assert mnt_estimates != qp_estimates
    finally:
        manager.close()


# -- over the wire -------------------------------------------------------


def test_served_mnt_stream_leaves_concurrent_qp_stream_unaffected(sock_path):
    packets = _packets()

    def run_server(feed_mnt):
        handle = run_in_thread(
            ReconstructionServer(DomoConfig(), socket_path=sock_path)
        )
        try:
            failures = []

            def feed(stream, backend):
                try:
                    with connect(socket_path=sock_path) as client:
                        client.send_packets(
                            packets, stream=stream, backend=backend
                        )
                        assert client.health()["ok"]
                        failures.extend(client.async_errors)
                except Exception as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [threading.Thread(target=feed, args=("qp", None))]
            if feed_mnt:
                threads.append(
                    threading.Thread(target=feed, args=("mstream", "mnt"))
                )
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not failures, failures
            with connect(socket_path=sock_path) as query:
                assert query.flush("qp")["ok"]
                qp = query.estimates("qp")
                mnt = None
                if feed_mnt:
                    assert query.flush("mstream")["ok"]
                    mnt = query.estimates("mstream")
            return qp, mnt
        finally:
            handle.stop()

    with_mnt, mnt = run_server(feed_mnt=True)
    alone, _ = run_server(feed_mnt=False)
    # The criterion: the domo-qp stream is bit-identical whether or not
    # an MNT stream ran concurrently on the same server and pool.
    assert with_mnt == alone
    assert set(mnt) == set(with_mnt)
    assert mnt != with_mnt


def test_backend_conflict_on_a_live_stream_is_an_async_error(sock_path):
    packets = _packets()
    handle = run_in_thread(
        ReconstructionServer(DomoConfig(), socket_path=sock_path)
    )
    try:
        with connect(socket_path=sock_path) as client:
            client.send_packets(packets[:10], stream="s")
            assert client.health()["ok"]
            assert not client.async_errors
            client.send_packet(packets[10], stream="s", backend="mnt")
            assert client.health()["ok"]
            assert any(
                "cannot switch" in error.get("error", "")
                for error in client.async_errors
            )
            # An unknown backend name never opens its stream.
            client.send_packet(packets[11], stream="t", backend="nope")
            assert client.health()["ok"]
            assert any(
                "not registered" in error.get("error", "")
                for error in client.async_errors
            )
            reply = client.results("t")
            assert not reply["ok"] and "unknown stream" in reply["error"]
    finally:
        handle.stop()


# -- durability ----------------------------------------------------------


def test_crashed_mnt_stream_recovers_as_an_mnt_stream(tmp_path):
    packets = _packets()

    def manager():
        return SessionManager(
            DomoConfig(),
            durability=DurabilityConfig(
                wal_dir=tmp_path / "wal", snapshot_interval=3
            ),
        )

    crashed = manager()
    session = crashed.get_or_create("s", backend="mnt")
    for lo in range(0, len(packets), 16):
        session.ingest(packets[lo:lo + 16])
    session.flush()
    expected = list(session.results)
    crashed.pool.close()  # simulate death: no drain, no close
    session._durability.close()

    recovered = manager()
    try:
        summary = recovered.recover_all()
        assert set(summary) == {"s"}
        assert summary["s"]["failed"] is None
        session = recovered.get("s")
        # The backend survives the crash — via snapshot or, before the
        # first snapshot, the backend meta file next to the WAL.
        assert session.backend == "mnt"
        assert session.config.backend == "mnt"
        assert session.results == expected  # bit-identical replay
    finally:
        recovered.close()


def test_backend_meta_alone_recovers_pre_snapshot_crash(tmp_path):
    packets = _packets()
    durability = DurabilityConfig(
        # A huge cadence: the crash happens before any snapshot exists.
        wal_dir=tmp_path / "wal", snapshot_interval=10_000
    )
    crashed = SessionManager(DomoConfig(), durability=durability)
    session = crashed.get_or_create("s", backend="mnt")
    session.ingest(packets[:32])
    crashed.pool.close()
    session._durability.close()

    recovered = SessionManager(DomoConfig(), durability=durability)
    try:
        summary = recovered.recover_all()
        assert summary["s"]["snapshot_cursor"] is None
        assert recovered.get("s").backend == "mnt"
    finally:
        recovered.close()


def test_recovery_names_a_stream_whose_backend_is_unregistered(tmp_path):
    durability = DurabilityConfig(wal_dir=tmp_path / "wal")
    crashed = SessionManager(DomoConfig(), durability=durability)
    session = crashed.get_or_create("old", backend="mnt")
    session.ingest(_packets()[:8])
    crashed.pool.close()
    session._durability.close()
    # The stream was opened under a backend this build does not have.
    stream_dir = stream_state_dir(durability.wal_dir, "old")
    (stream_dir / "backend.json").write_text(json.dumps({"backend": "cs"}))

    recovered = SessionManager(DomoConfig(), durability=durability)
    try:
        with pytest.raises(RecoveryError) as excinfo:
            recovered.recover_all()
        message = str(excinfo.value)
        assert "'old'" in message
        assert "'cs'" in message
        assert str(stream_dir) in message
    finally:
        recovered.close()
