"""Per-stream sessions and the manager that demultiplexes onto them.

A **session** is one stream id's reconstruction state: a
:class:`~repro.stream.engine.StreamingReconstructor` wired to the shared
solver pool, a private :class:`~repro.obs.registry.MetricsRegistry`
(installed around every engine call so per-stream counters stay
per-stream whichever thread makes the call), and the serialized rows of
every committed window so RESULTS can be answered long after the
windows were evicted from the engine.

The **manager** maps stream ids to sessions, enforces the
``max_sessions`` admission limit (counting *active* sessions — drained
ones keep answering queries but no longer occupy a slot), and tracks
which connections feed each stream so the last disconnect triggers
eviction: flush the engine, commit everything, release the solver lane,
keep the results queryable.

Everything here is synchronous and asyncio-free: the server makes
every engine call on the stream's own lane thread (one call at a time,
in the order the stream's records and commands arrived), and unit tests
drive sessions directly.

With a :class:`~repro.serve.durability.DurabilityConfig`, every session
write-ahead-logs its ingest batches and flush boundaries, snapshots its
quiesced state on a record cadence, and :meth:`SessionManager
.recover_all` rebuilds every stream after a crash from snapshot +
WAL-suffix replay — reproducing the pre-crash committed results
bit-exactly (see :mod:`repro.serve.durability`).
"""

from __future__ import annotations

import json
import os
import threading
import urllib.parse
from dataclasses import replace

from repro.core.pipeline import DomoConfig
from repro.obs.registry import MetricsRegistry, registry_scope
from repro.obs.spans import span
from repro.serve.durability import (
    DurabilityConfig,
    load_latest_snapshot,
    stream_state_dir,
)
from repro.serve.durability import crashpoints
from repro.serve.durability.recovery import (
    BATCH_RECORD,
    RecoveryError,
    SnapshotConfigMismatchError,
    StreamDurability,
    config_signature,
    iter_wal_batches,
)
from repro.serve.durability.snapshot import SNAPSHOT_SCHEMA
from repro.serve.pool import SharedSolverPool
from repro.serve.protocol import committed_window_to_json
from repro.stream.engine import StreamingReconstructor

__all__ = [
    "BackendMismatchError",
    "SessionLimitError",
    "SessionManager",
    "StreamSession",
]

#: per-stream metadata persisted next to the WAL so a crash *before the
#: first snapshot* still recovers the stream under its chosen backend.
BACKEND_META_FILE = "backend.json"


class SessionLimitError(RuntimeError):
    """Admission control refused to create another session."""


class BackendMismatchError(ValueError):
    """A record asked a live stream to switch estimator backends."""


class StreamSession:
    """One stream's engine, metrics scope, and committed-result log."""

    def __init__(
        self,
        stream_id: str,
        config: DomoConfig,
        lateness_ms: float,
        pool: SharedSolverPool,
        durability: StreamDurability | None = None,
    ) -> None:
        self.stream_id = stream_id
        self.registry = MetricsRegistry()
        #: the stream's *effective* config (the manager folds a
        #: per-stream backend choice in before constructing the session).
        self.config = config
        self.backend = config.backend
        self._pool = pool
        self._executor = pool.session(stream_id, spec=config.solve_spec())
        self._durability = durability
        self.engine = StreamingReconstructor(
            config, lateness_ms=lateness_ms, executor=self._executor
        )
        #: serialized RESULTS rows of every committed window; row ``i``
        #: is the window of solve index ``i`` (see :meth:`_absorb`).
        #: Survives engine eviction and drain.
        self.results: list[dict] = []
        #: records accepted into the engine (ingest calls may batch).
        self.records_in = 0
        self.drained = False
        #: first engine failure (ingest or flush raising), if any; a
        #: failed session keeps its committed results queryable but
        #: accepts no further records.
        self.failed: str | None = None
        #: connections currently feeding this stream.
        self._owners: set[int] = set()

    # -- engine calls (always under the session registry) ---------------

    def ingest(self, packets) -> None:
        """Feed one batch of records; collect any windows that committed.

        With durability, the batch is appended to the WAL *before* it
        touches the engine — an accepted record is a durable record —
        and a snapshot is taken when the configured cadence is due.
        """
        packets = list(packets)
        if self._durability is not None and self.failed is None:
            self._durability.log_batch(packets)
            crashpoints.maybe_crash("ingest")
        self._ingest(packets)
        if self._durability is not None and self._durability.due_for_snapshot():
            self.snapshot()

    def _ingest(self, packets) -> None:
        """Engine-side half of ingest (shared by the live path and
        recovery replay, which must not re-log what it reads back)."""
        with registry_scope(self.registry):
            with span("session"):
                self.engine.ingest(packets)
                committed = self.engine.poll()
        # Absorb first: once STATS counts a record in, RESULTS holds
        # every window its batch committed.
        self._absorb(committed)
        self.records_in += len(packets)

    def collect(self) -> None:
        """Commit the solves that finished since the last engine call,
        without waiting for the stream's next record."""
        with registry_scope(self.registry):
            with span("session"):
                committed = self.engine.poll()
        self._absorb(committed)

    def flush(self) -> int:
        """Seal/solve/commit everything buffered; new committed count.

        The flush boundary is WAL-logged *before* the engine flush runs
        (write-ahead), so a crash mid-solve replays the flush at the
        identical record boundary and commits the same windows.
        """
        if self._durability is not None and self.failed is None:
            self._durability.log_flush()
            crashpoints.maybe_crash("solve")
        return self._flush()

    def _flush(self) -> int:
        with registry_scope(self.registry):
            with span("session"):
                committed = self.engine.flush()
        self._absorb(committed)
        return len(committed)

    def snapshot(self) -> bool:
        """Quiesce the engine and persist a recovery snapshot.

        Skipped (returns False) without durability or on a failed
        session — a failed engine's state is not trustworthy, and its
        WAL alone reproduces the failure deterministically.
        """
        if self._durability is None or self.failed is not None:
            return False
        with registry_scope(self.registry):
            with span("snapshot"):
                self.engine.quiesce()
                committed = self.engine.poll()
        self._absorb(committed)
        document = {
            "schema": SNAPSHOT_SCHEMA,
            "stream": self.stream_id,
            "wal_cursor": self._durability.wal_cursor,
            "records_durable": self._durability.records_durable,
            "config_sig": self._durability.config_sig,
            "backend": self.backend,
            "session": {
                "results": self.results,
                "records_in": self.records_in,
                "failed": self.failed,
                "drained": self.drained,
            },
            "engine": self.engine.export_state(),
        }
        self._durability.save_snapshot(document)
        return True

    def drain(self) -> None:
        """Final flush + release of the solver lane (results kept).

        A broken engine (e.g. after a strict-validation rejection mid-
        ingest) must not wedge the drain: the failure is recorded and
        the session still ends up ``drained`` so eviction and shutdown
        complete; the pool sweeps any leftover lane residue at close.
        With durability, the drained state is snapshotted and the WAL
        closed, so a later restart restores the stream as a queryable,
        already-drained session without replaying anything.
        """
        if self.drained:
            return
        try:
            self.flush()
        except Exception as exc:  # noqa: BLE001 - record, keep draining
            self.mark_failed(f"{type(exc).__name__}: {exc}")
        self.engine.close()  # no-op on the injected executor, by design
        try:
            self._pool.release(self.stream_id)
        except RuntimeError:
            if self.failed is None:
                raise
        self.drained = True
        if self._durability is not None:
            try:
                self.snapshot()
            except Exception as exc:  # noqa: BLE001 - a failed final
                # snapshot must not wedge shutdown; the WAL still
                # recovers this stream, just with a longer replay.
                self.mark_failed(f"{type(exc).__name__}: {exc}")
            self._durability.close()

    def mark_failed(self, reason: str) -> None:
        """Record the first engine failure (later ones keep the first)."""
        if self.failed is None:
            self.failed = reason

    def _absorb(self, committed) -> None:
        # The engine commits solve indices consecutively from 0, so row
        # i holds solve index i and results_since can slice. A window
        # out of that order raises, which fails the stream closed.
        for cw in committed:
            if cw.solve_index != len(self.results):
                raise RuntimeError(
                    f"stream {self.stream_id!r}: window {cw.solve_index} "
                    f"committed as row {len(self.results)}"
                )
            self.results.append(committed_window_to_json(cw))

    # -- ownership (which connections feed this stream) ------------------

    def add_owner(self, connection_id: int) -> None:
        self._owners.add(connection_id)

    def remove_owner(self, connection_id: int) -> bool:
        """Detach a connection; True when this was the last owner."""
        self._owners.discard(connection_id)
        return not self._owners

    @property
    def num_owners(self) -> int:
        return len(self._owners)

    # -- queries ---------------------------------------------------------

    @property
    def records_durable(self) -> int:
        """Records safely in the WAL — the client's resume offset.

        Without durability this degrades to the engine-accepted count,
        so the RESULTS field is always present and monotone.
        """
        if self._durability is not None:
            return self._durability.records_durable
        return self.records_in

    def results_since(self, since: int = -1) -> list[dict]:
        """Committed rows with ``solve_index > since`` (all by default)."""
        return self.results[max(since + 1, 0):]

    def stats(self) -> dict:
        # Deliberately reads only scalar engine state (no
        # ``engine.stats()``): STATS runs on the event loop while the
        # session's lane thread may be mid-ingest, and scalar reads are
        # safe where iterating the engine's dicts would not be.
        return {
            "backend": self.backend,
            "records_in": self.records_in,
            "records_durable": self.records_durable,
            "windows_committed": len(self.results),
            "backlog": self.engine.backlog,
            "resident_packets": self.engine.resident_packets,
            "quarantined": self.engine.report.num_quarantined,
            "drained": self.drained,
            "failed": self.failed,
            "owners": self.num_owners,
        }


class SessionManager:
    """Stream-id -> session map with admission control and eviction."""

    def __init__(
        self,
        config: DomoConfig | None = None,
        lateness_ms: float = float("inf"),
        max_sessions: int = 64,
        pool: SharedSolverPool | None = None,
        durability: DurabilityConfig | None = None,
        adoption_grace_s: float = 0.25,
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        if adoption_grace_s < 0.0:
            raise ValueError(
                f"adoption_grace_s must be >= 0, got {adoption_grace_s}"
            )
        self.config = config or DomoConfig()
        self.lateness_ms = lateness_ms
        self.max_sessions = max_sessions
        self.durability = durability
        #: how long an orphaned stream waits for adoption before its
        #: eviction flush becomes the point of no return (the server
        #: reads this; crash tests shrink it to make evictions prompt).
        self.adoption_grace_s = float(adoption_grace_s)
        self._config_sig = config_signature(self.config, lateness_ms)
        self.pool = pool or SharedSolverPool(
            self.config.solve_spec(),
            parallel=self.config.parallel,
            max_workers=self.config.max_workers,
        )
        self._lock = threading.Lock()
        self._sessions: dict[str, StreamSession] = {}
        self.sessions_rejected = 0
        self.sessions_evicted = 0

    # -- lookup / admission ----------------------------------------------

    def _active_locked(self) -> int:
        """Active-session count; caller must hold :attr:`_lock`."""
        return sum(1 for s in self._sessions.values() if not s.drained)

    @property
    def active_sessions(self) -> int:
        with self._lock:
            return self._active_locked()

    def get(self, stream_id: str) -> StreamSession | None:
        return self._sessions.get(stream_id)

    def _effective_config(self, backend: str | None) -> DomoConfig:
        """The per-stream config a backend choice implies.

        ``None`` (no choice on the wire) and the server's own backend
        both collapse to the shared default config object, so default
        streams stay byte-identical to the pre-backend server.
        """
        if backend is None or backend == self.config.backend:
            return self.config
        # replace() re-runs DomoConfig validation, so an unknown backend
        # name raises ValueError here — the server turns that into an
        # async error line instead of opening the stream.
        return replace(self.config, backend=backend)

    def _sig_for(self, config: DomoConfig) -> str:
        return config_signature(config, self.lateness_ms)

    def get_or_create(
        self, stream_id: str, backend: str | None = None
    ) -> StreamSession:
        """The stream's session, admitting a new one if allowed.

        ``backend`` is the record's estimator-backend choice: honored
        when it opens the stream, a no-op when it matches the live
        session, and a :class:`BackendMismatchError` when it conflicts
        with one. Raises :class:`SessionLimitError` when
        ``max_sessions`` *active* sessions already exist — drained
        sessions stay queryable but do not hold an admission slot.
        """
        with self._lock:
            session = self._sessions.get(stream_id)
            if session is not None:
                if backend is not None and session.backend != backend:
                    raise BackendMismatchError(
                        f"stream {stream_id!r} is running backend "
                        f"{session.backend!r}; cannot switch to "
                        f"{backend!r} on a live stream"
                    )
                return session
            if self._active_locked() >= self.max_sessions:
                self.sessions_rejected += 1
                raise SessionLimitError(
                    f"session limit reached ({self.max_sessions} active); "
                    f"stream {stream_id!r} refused"
                )
            config = self._effective_config(backend)
            durability = self._durability_for(
                stream_id, self._sig_for(config)
            )
            self._write_backend_meta(durability, config.backend)
            session = StreamSession(
                stream_id,
                config,
                self.lateness_ms,
                self.pool,
                durability=durability,
            )
            self._sessions[stream_id] = session
            return session

    def _durability_for(
        self, stream_id: str, config_sig: str | None = None
    ) -> StreamDurability | None:
        if self.durability is None:
            return None
        return StreamDurability(
            self.durability,
            stream_id,
            config_sig=config_sig if config_sig is not None
            else self._config_sig,
        )

    @staticmethod
    def _write_backend_meta(
        durability: StreamDurability | None, backend: str
    ) -> None:
        """Persist the stream's backend choice next to its WAL.

        Written at session creation (before any snapshot exists), so a
        crash at any point recovers the stream under the backend it was
        opened with. The write is atomic (tmp + rename) — a torn meta
        file must not take recovery down.
        """
        if durability is None:
            return
        path = durability.stream_dir / BACKEND_META_FILE
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"backend": backend}))
        os.replace(tmp, path)

    @staticmethod
    def _read_backend_meta(stream_dir) -> str | None:
        """The backend a stream directory was opened with (None = default
        or pre-backend layout; unreadable files degrade to None too)."""
        path = stream_dir / BACKEND_META_FILE
        try:
            return json.loads(path.read_text())["backend"]
        except (OSError, ValueError, KeyError, TypeError):
            return None

    # -- crash recovery ----------------------------------------------------

    def recover_all(self) -> dict:
        """Rebuild every stream found under the WAL root; per-stream
        summary keyed by stream id.

        Called once at server startup, before listeners come up, so
        recovered sessions exist before any client can reach them.
        Recovered streams bypass the admission cap (refusing to recover
        durable state because of a limit meant for *new* streams would
        turn a restart into data loss). WAL corruption, snapshot config
        mismatches and unregistered stream backends raise — a server
        must not come up pretending to have state it cannot truthfully
        rebuild; the supervisor's circuit breaker surfaces the named
        error after repeated failures.
        """
        summary: dict[str, dict] = {}
        if self.durability is None:
            return summary
        root = self.durability.wal_dir
        if not root.is_dir():
            return summary
        for entry in sorted(root.iterdir()):
            if not entry.is_dir():
                continue
            stream_id = urllib.parse.unquote(entry.name)
            with self._lock:
                if stream_id in self._sessions:
                    continue
                summary[stream_id] = self._recover_stream(stream_id)
        return summary

    def _recover_stream(self, stream_id: str) -> dict:
        """Rebuild one stream: newest valid snapshot + WAL-suffix replay.

        Engine-level replay failures (e.g. a strict-validation rejection
        that also failed the live run) are contained exactly like the
        live lane contains them — the session is marked failed, its
        committed results stay queryable — while WAL corruption stays
        fatal (raised from the writer's open or the replay iterator).
        """
        state_dir = stream_state_dir(self.durability.wal_dir, stream_id)
        try:
            config = self._effective_config(
                self._read_backend_meta(state_dir)
            )
        except ValueError as exc:
            # The stream was opened under a backend this build does not
            # register (e.g. one since removed).
            raise RecoveryError(
                f"stream {stream_id!r}: {exc}; restore a build that "
                f"registers it or clear {state_dir}"
            ) from exc
        durability = StreamDurability(
            self.durability, stream_id, config_sig=self._sig_for(config)
        )
        try:
            return self._restore_stream(stream_id, config, durability)
        except BaseException:
            # A refused recovery leaves no WAL segment open behind it.
            durability.close()
            raise

    def _restore_stream(
        self, stream_id: str, config: DomoConfig, durability: StreamDurability
    ) -> dict:
        """Load the newest snapshot of an opened stream, replay its WAL
        suffix into a new session and register that session."""
        config_sig = durability.config_sig
        snapshot = load_latest_snapshot(durability.stream_dir)
        cursor = 0
        if snapshot is not None:
            if snapshot.get("config_sig") != config_sig:
                raise SnapshotConfigMismatchError(
                    f"stream {stream_id!r}: snapshot at WAL cursor "
                    f"{snapshot.get('wal_cursor')} was taken under config "
                    f"signature {snapshot.get('config_sig')!r}, server is "
                    f"running {config_sig!r}; restore the original "
                    f"config or clear {durability.stream_dir}"
                )
            cursor = snapshot["wal_cursor"]
        session = StreamSession(
            stream_id,
            config,
            self.lateness_ms,
            self.pool,
            durability=durability,
        )
        if snapshot is not None:
            session.engine = StreamingReconstructor.from_state(
                snapshot["engine"],
                config,
                lateness_ms=self.lateness_ms,
                executor=session._executor,
            )
            session.results = list(snapshot["session"]["results"])
            session.records_in = snapshot["session"]["records_in"]
            session.failed = snapshot["session"]["failed"]
            durability.records_durable = snapshot["records_durable"]
            durability.last_snapshot_cursor = cursor
        replayed_records = 0
        replayed_packets = 0
        from repro.sim.io import packet_from_json

        for index, record in iter_wal_batches(durability.stream_dir, cursor):
            replayed_records += 1
            if record["t"] == BATCH_RECORD:
                packets = [
                    packet_from_json(item, index)
                    for item in record["packets"]
                ]
                durability.records_durable += len(packets)
                replayed_packets += len(packets)
                if session.failed is None:
                    try:
                        session._ingest(packets)
                    except Exception as exc:  # noqa: BLE001 - contained
                        session.mark_failed(f"{type(exc).__name__}: {exc}")
            else:
                if session.failed is None:
                    try:
                        session._flush()
                    except Exception as exc:  # noqa: BLE001 - contained
                        session.mark_failed(f"{type(exc).__name__}: {exc}")
        if snapshot is not None and snapshot["session"].get("drained"):
            # The stream finished its life before the crash: restore it
            # as the queryable, lane-free shell it was.
            session.drained = True
            session.engine.close()
            try:
                self.pool.release(stream_id)
            except RuntimeError:
                pass
            durability.close()
        self._sessions[stream_id] = session
        return {
            "snapshot_cursor": cursor if snapshot is not None else None,
            "wal_records_replayed": replayed_records,
            "packets_replayed": replayed_packets,
            "records_durable": durability.records_durable,
            "windows_committed": len(session.results),
            "torn_records_truncated": durability.wal.records_truncated,
            "drained": session.drained,
            "failed": session.failed,
        }

    # -- eviction ----------------------------------------------------------

    def disconnect(self, connection_id: int) -> list[StreamSession]:
        """Detach a closed connection everywhere; return sessions whose
        last feeder just left (the server drains them off-loop)."""
        orphaned = []
        with self._lock:
            for session in self._sessions.values():
                if session.drained:
                    continue
                had = connection_id in session._owners
                if had and session.remove_owner(connection_id):
                    orphaned.append(session)
        return orphaned

    def evict(self, session: StreamSession) -> None:
        """Drain one orphaned session (flush, release lane, keep results)."""
        if not session.drained:
            session.drain()
            self.sessions_evicted += 1

    def drain_all(self) -> int:
        """Flush every active session (shutdown path); windows committed."""
        committed = 0
        for session in list(self._sessions.values()):
            if not session.drained:
                before = len(session.results)
                session.drain()
                committed += len(session.results) - before
        return committed

    # -- aggregate views ---------------------------------------------------

    def merged_registry(self) -> MetricsRegistry:
        """All session registries + the pool registry, merged."""
        merged = MetricsRegistry()
        for session in self._sessions.values():
            merged.merge(session.registry.snapshot())
        merged.merge(self.pool.registry.snapshot())
        return merged

    def stats(self) -> dict:
        # One locked snapshot of the session map, then lock-free scalar
        # reads: stats() must be safe to call from any thread (tests,
        # embedding callers) while sessions are being admitted or
        # evicted concurrently.
        with self._lock:
            sessions = sorted(self._sessions.items())
            active = self._active_locked()
        streams = {
            stream_id: session.stats() for stream_id, session in sessions
        }
        return {
            "sessions": len(streams),
            "active_sessions": active,
            "max_sessions": self.max_sessions,
            "sessions_rejected": self.sessions_rejected,
            "sessions_evicted": self.sessions_evicted,
            "pool": self.pool.stats(),
            "streams": streams,
        }

    def close(self) -> None:
        self.drain_all()
        self.pool.close()
