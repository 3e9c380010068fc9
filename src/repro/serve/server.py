"""The asyncio reconstruction server: many sockets in, one solver pool.

Architecture (one box per concurrency domain)::

    TCP / unix listeners          asyncio event loop        worker threads
    ─────────────────────         ──────────────────        ──────────────
    conn reader ──parse──▶ per-stream asyncio.Queue ──▶ pump ──▶ session.ingest
    conn reader ──parse──▶        (bounded)           ──▶ pump ──▶ session.ingest
         │                                                     │
         └── commands ◀── strict-JSON replies                  └─▶ SharedSolverPool

The listener/connection half (readers, line parsing, strict-JSON
replies, signal wiring, orderly close) lives in
:class:`~repro.serve.core.LineProtocolServer`; this module is the
serving core — what a parsed line *means*:

* **Readers** (one coroutine per connection) enqueue records onto their
  stream's bounded queue. A full queue blocks the ``put``, which stops
  the reader, which stops reading the socket, which fills the kernel
  buffers, which blocks the client's ``send`` — backpressure is the
  transport's own flow control, so an overloaded server slows producers
  down instead of buffering without bound or dropping accepted records.
* **Pumps** (one per stream) batch records off the queue and run
  ``session.ingest`` in a worker thread (``asyncio.to_thread``) under
  the stream's asyncio lock, so the event loop never blocks on a solve
  and each engine only ever sees one call at a time.
* **Solves** are multiplexed over one shared
  :class:`~repro.serve.pool.SharedSolverPool` with round-robin fairness
  across streams.
* **Shutdown** (SIGTERM/SIGINT or ``request_shutdown``) drains in
  order: stop accepting, close readers, flush the queues through the
  pumps, final-flush every session (sealing and committing every open
  window), close the pool, then write the ``domo.run_report/1`` with
  every session's and the pool's metrics merged in.
"""

from __future__ import annotations

import asyncio
import threading

from repro.core.pipeline import DomoConfig
from repro.obs.registry import isolated_registry
from repro.obs.report import RunReport, build_run_report, write_run_report
from repro.obs.spans import span
from repro.serve.core import LineProtocolServer
from repro.serve.protocol import (
    CommandLine,
    ProtocolError,
    RecordLine,
    error_response,
    parse_since,
)
from repro.serve.durability import DurabilityConfig
from repro.serve.session import (
    BackendMismatchError,
    SessionLimitError,
    SessionManager,
    StreamSession,
)

__all__ = ["ReconstructionServer", "ServerHandle", "run_in_thread"]


class _StreamLane:
    """Event-loop-side plumbing of one stream: queue, pump, engine lock."""

    def __init__(self, session: StreamSession, capacity: int) -> None:
        self.session = session
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=capacity)
        self.lock = asyncio.Lock()
        self.pump: asyncio.Task | None = None
        self.stopping = False
        #: set (on the event loop) the moment an eviction flush starts,
        #: so records racing the worker-thread drain are rejected up
        #: front instead of being ingested into a drained engine.
        self.draining = False
        #: first ingest failure (e.g. a strict-validation rejection);
        #: once set, the pump discards instead of ingesting and new
        #: records are refused with an error naming this reason.
        self.failed: str | None = None


class ReconstructionServer(LineProtocolServer):
    """Line-protocol reconstruction service over TCP and/or unix sockets.

    Args:
        config: reconstruction configuration shared by every stream.
        socket_path: serve on this unix-domain socket (optional).
        host/port: serve on TCP (optional; ``port=0`` picks a free port,
            readable afterwards from :attr:`endpoints`).
        max_sessions: admission limit on concurrently active streams.
        lateness_ms: watermark allowance passed to every engine;
            ``inf`` (the default) defers all sealing to FLUSH/shutdown,
            which makes served results bit-identical to the batch
            pipeline regardless of how clients shard or interleave.
        chunk: max records per engine ingest call.
        queue_capacity: bound of each stream's ingest queue — the
            backpressure high-watermark.
        metrics_out: write the shutdown RunReport here.
        durability: WAL + snapshot configuration; when set, every
            stream's ingest is write-ahead-logged and :meth:`run`
            recovers all persisted streams before the listeners come
            up (see :mod:`repro.serve.durability`).
        adoption_grace_s: how long an orphaned stream waits for
            adoption before its eviction flush becomes the point of no
            return. A concurrent feeder whose first record lost a
            scheduling race to another connection's disconnect gets
            this window to adopt the stream; afterwards records are
            refused (with an error line) rather than racing the drain.
            Shutdown skips the grace entirely.
    """

    def __init__(
        self,
        config: DomoConfig | None = None,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        max_sessions: int = 64,
        lateness_ms: float = float("inf"),
        chunk: int = 256,
        queue_capacity: int = 1024,
        metrics_out: str | None = None,
        durability: DurabilityConfig | None = None,
        adoption_grace_s: float = 0.25,
        argv: list[str] | None = None,
        on_ready=None,
    ) -> None:
        super().__init__(
            socket_path=socket_path,
            host=host,
            port=port,
            on_ready=on_ready,
        )
        if chunk < 1 or queue_capacity < 1:
            raise ValueError("chunk and queue_capacity must be >= 1")
        self.config = config or DomoConfig()
        self.chunk = chunk
        self.queue_capacity = queue_capacity
        self.metrics_out = metrics_out
        self.argv = list(argv or [])
        self.manager = SessionManager(
            self.config,
            lateness_ms=lateness_ms,
            max_sessions=max_sessions,
            durability=durability,
            adoption_grace_s=adoption_grace_s,
        )
        #: per-stream recovery summary, populated by :meth:`run` when
        #: durability is configured (also surfaced under STATS).
        self.recovery: dict = {}
        #: the shutdown RunReport, populated when :meth:`run` returns.
        self.report: RunReport | None = None

        self._lanes: dict[str, _StreamLane] = {}
        # Guards _lanes itself (not lane internals): mutations happen on
        # the event loop, but stats() snapshots the map from arbitrary
        # threads (tests, embedding callers).
        self._lanes_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle (the serving core run by LineProtocolServer.run)
    # ------------------------------------------------------------------

    async def _run_core(self) -> RunReport:
        """Recover, serve until shutdown, drain, build the run report."""
        with isolated_registry() as registry:
            with span("run"):
                with span("recover"):
                    # Before any listener: recovered sessions must
                    # exist before a client can query or feed them.
                    self.recovery = await asyncio.to_thread(
                        self.manager.recover_all
                    )
                with span("serve"):
                    await self._serve_until_shutdown()
                with span("drain"):
                    await self._drain()
            registry.merge(self.manager.merged_registry().snapshot())
            self.report = build_run_report(
                "serve",
                argv=self.argv,
                config=self.config,
                stats=self.stats(),
                registry=registry,
            )
        if self.metrics_out:
            write_run_report(self.metrics_out, self.report)
        return self.report

    async def _drain(self) -> None:
        """The graceful-shutdown sequence (see module docstring)."""
        # Disconnect-triggered evictions need the pumps alive (they wait
        # on queue.join()), so _close_connections settles them before we
        # stop the pumps.
        await self._close_connections()
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            await lane.queue.put(None)
        pumps = [lane.pump for lane in lanes if lane.pump]
        if pumps:
            await asyncio.gather(*pumps, return_exceptions=True)
        # Everything queued is ingested; seal/solve/commit every open
        # window and shut the solver pool down.
        await asyncio.to_thread(self.manager.close)

    def on_disconnect(self, conn_id: int) -> None:
        for session in self.manager.disconnect(conn_id):
            self._spawn(self._evict_when_drained(session))

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    async def handle_record(
        self, conn_id: int, record: RecordLine, writer
    ) -> None:
        try:
            lane = self._lane(record.stream, backend=record.backend)
        except (SessionLimitError, ValueError) as exc:
            # ValueError covers an unknown backend name and a
            # BackendMismatchError (a live stream asked to switch).
            self._records_rejected += 1
            await self._send(
                writer,
                error_response(
                    str(exc), stream=record.stream, **{"async": True}
                ),
            )
            return
        # ``draining`` covers the gap between the eviction decision
        # (on this loop) and ``drained`` flipping at the end of
        # the flush on a worker thread — records landing in that gap
        # must be refused, not accepted and then silently lost to a
        # drained engine.
        if lane.draining or lane.session.drained:
            self._records_rejected += 1
            await self._send(
                writer,
                error_response(
                    f"stream {record.stream!r} is drained",
                    stream=record.stream,
                    **{"async": True},
                ),
            )
            return
        if lane.failed is not None:
            self._records_rejected += 1
            await self._send(
                writer,
                error_response(
                    f"stream {record.stream!r} failed: {lane.failed}",
                    stream=record.stream,
                    **{"async": True},
                ),
            )
            return
        lane.session.add_owner(conn_id)
        # The backpressure point: a full queue parks this reader (and
        # thereby the client's sends) until the pump catches up.
        await lane.queue.put(record.packet)
        self._records_accepted += 1

    def _lane(
        self, stream_id: str, backend: str | None = None
    ) -> _StreamLane:
        lane = self._lanes.get(stream_id)
        if lane is not None:
            if backend is not None and backend != lane.session.backend:
                raise BackendMismatchError(
                    f"stream {stream_id!r} runs backend "
                    f"{lane.session.backend!r}; cannot switch to {backend!r}"
                )
            return lane
        session = self.manager.get_or_create(stream_id, backend=backend)
        lane = _StreamLane(session, self.queue_capacity)
        # Pumps live outside _bg_tasks: _drain settles the short-
        # lived background work (evictions) *before* stopping the
        # pumps, because evictions wait on queues only pumps empty.
        lane.pump = asyncio.get_running_loop().create_task(
            self._pump(lane)
        )
        with self._lanes_lock:
            self._lanes[stream_id] = lane
        return lane

    # ------------------------------------------------------------------
    # Pumps and eviction
    # ------------------------------------------------------------------

    async def _pump(self, lane: _StreamLane) -> None:
        """Batch records off the stream queue into the engine.

        An ingest that raises (e.g. a strict-validation rejection) must
        not kill the pump: the lane is marked failed and the pump keeps
        draining — discarding — so ``queue.join()``, eviction, and the
        shutdown drain still complete instead of wedging behind a full
        queue nobody consumes.
        """
        while not lane.stopping:
            item = await lane.queue.get()
            if item is None:
                lane.queue.task_done()
                return
            if lane.failed is not None:
                self._records_dropped += 1
                lane.queue.task_done()
                continue
            batch = [item]
            while len(batch) < self.chunk:
                try:
                    extra = lane.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    lane.stopping = True
                    lane.queue.task_done()
                    break
                batch.append(extra)
            try:
                async with lane.lock:
                    # Re-check under the lock: an eviction flush may
                    # have drained the engine while this batch waited.
                    if lane.session.drained:
                        self._records_dropped += len(batch)
                    else:
                        await asyncio.to_thread(lane.session.ingest, batch)
            except Exception as exc:  # noqa: BLE001 - any engine error
                lane.failed = f"{type(exc).__name__}: {exc}"
                lane.session.mark_failed(lane.failed)
                self._records_dropped += len(batch)
            finally:
                # task_done only after ingest: queue.join() == "every
                # record queued so far has reached the engine".
                for _ in batch:
                    lane.queue.task_done()

    async def _evict_when_drained(self, session: StreamSession) -> None:
        """Last feeder left: flush once its queued records are ingested."""
        lane = self._lanes.get(session.stream_id)
        if lane is not None and lane.session is not session:
            lane = None  # not this session's lane
        if lane is not None:
            await lane.queue.join()
        # Adoption grace: another connection may be about to feed this
        # stream (its first record merely lost a scheduling race to the
        # disconnect that orphaned it). Shutdown cuts the grace short.
        if self._shutdown is not None and not self._shutdown.is_set():
            try:
                await asyncio.wait_for(
                    self._shutdown.wait(), self.manager.adoption_grace_s
                )
            except asyncio.TimeoutError:
                pass
        # A new connection may have adopted the stream while we waited.
        if session.num_owners or session.drained:
            return
        if self.manager.get(session.stream_id) is not session:
            return  # no longer this stream's session
        if lane is not None:
            # No await between the owner re-check and this flag, so no
            # record can slip in between: everything arriving from here
            # on is refused in handle_record instead of racing the
            # worker-thread flush below (which only sets ``drained`` at
            # the very end).
            lane.draining = True
            async with lane.lock:
                await asyncio.to_thread(self.manager.evict, session)
        else:
            await asyncio.to_thread(self.manager.evict, session)

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------

    async def handle_command(self, cmd: CommandLine) -> dict:
        try:
            if cmd.verb == "HEALTH":
                return {
                    "ok": True,
                    "status": "serving",
                    "sessions": len(self.manager._sessions),
                    "active_sessions": self.manager.active_sessions,
                }
            if cmd.verb == "STATS":
                return {"ok": True, **self.stats()}
            if cmd.verb == "RESULTS":
                return await self._cmd_results(cmd.args)
            if cmd.verb == "FLUSH":
                return await self._cmd_flush(cmd.args)
            if cmd.verb == "QUIT":
                return {"ok": True, "bye": True}
            return error_response(f"unknown command {cmd.verb!r}")
        except ProtocolError as exc:
            return error_response(str(exc))
        except Exception as exc:  # noqa: BLE001 - one bad command must
            # never take the server down; the client gets the reason.
            return error_response(f"{type(exc).__name__}: {exc}")

    async def _cmd_results(self, args: tuple[str, ...]) -> dict:
        if not args:
            raise ProtocolError("RESULTS needs a stream id")
        stream_id = args[0]
        since = -1
        rest = list(args[1:])
        while rest:
            flag = rest.pop(0)
            if flag == "--since" and rest:
                since = parse_since(rest.pop(0))
            else:
                raise ProtocolError(f"unknown RESULTS argument {flag!r}")
        session = self.manager.get(stream_id)
        if session is None:
            return error_response(
                f"unknown stream {stream_id!r}", stream=stream_id
            )
        lane = self._lanes.get(stream_id)
        if lane is not None and session.engine.backlog:
            # Commit the solves that finished since the stream's last
            # record now, not when its next record arrives.
            async with lane.lock:
                if not session.drained and session.failed is None:
                    await asyncio.to_thread(session.collect)
        windows = session.results_since(since)
        return {
            "ok": True,
            "stream": stream_id,
            "since": since,
            "count": len(windows),
            "last_solve_index": (
                windows[-1]["solve_index"] if windows else since
            ),
            "drained": session.drained,
            # The resume offset: records safely in the WAL. A client
            # reconnecting after a crash resends its trace from here —
            # nothing lost, nothing double-ingested.
            "records_durable": session.records_durable,
            "windows": windows,
        }

    async def _cmd_flush(self, args: tuple[str, ...]) -> dict:
        if len(args) != 1:
            raise ProtocolError("FLUSH needs exactly one stream id")
        stream_id = args[0]
        lane = self._lanes.get(stream_id)
        session = self.manager.get(stream_id)
        if session is None:
            return error_response(
                f"unknown stream {stream_id!r}", stream=stream_id
            )
        if lane is not None and lane.failed is not None:
            return error_response(
                f"stream {stream_id!r} failed: {lane.failed}",
                stream=stream_id,
            )
        if session.drained:
            # Already flushed by eviction/shutdown; the engine's solver
            # lane is released, so don't flush again — just report.
            return {
                "ok": True,
                "stream": stream_id,
                "new_commits": 0,
                "windows_committed": len(session.results),
                "drained": True,
            }
        if lane is not None:
            # Everything enqueued before this FLUSH reaches the engine
            # first, so the flush covers it.
            await lane.queue.join()
            async with lane.lock:
                # An eviction may have drained the session while this
                # command waited for the lock.
                if session.drained:
                    new_commits = 0
                else:
                    new_commits = await asyncio.to_thread(session.flush)
        else:
            new_commits = await asyncio.to_thread(session.flush)
        return {
            "ok": True,
            "stream": stream_id,
            "new_commits": new_commits,
            "windows_committed": len(session.results),
            "drained": session.drained,
        }

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        stats = self.manager.stats()
        with self._lanes_lock:
            lanes = list(self._lanes.items())
        for stream_id, lane in lanes:
            entry = stats["streams"].get(stream_id)
            if entry is not None:
                entry["queue_depth"] = lane.queue.qsize()
                entry["queue_capacity"] = self.queue_capacity
                # lane.failed (pump-side) and the session's own failed
                # (drain-side) record the same condition from different
                # threads; surface whichever fired first.
                entry["failed"] = lane.failed or entry.get("failed")
        stats["server"] = {
            **self.connection_stats(),
            "chunk": self.chunk,
            "queue_capacity": self.queue_capacity,
        }
        if self.recovery:
            stats["recovery"] = self.recovery
        return stats


# ----------------------------------------------------------------------
# Thread-hosted server (tests, the in-process demo)
# ----------------------------------------------------------------------


class ServerHandle:
    """A server running on a background thread; ``stop()`` drains it."""

    def __init__(self, server: ReconstructionServer) -> None:
        self.server = server
        self._thread = threading.Thread(
            target=self._main, name="domo-serve", daemon=True
        )
        self._error: BaseException | None = None

    def _main(self) -> None:
        try:
            asyncio.run(self.server.run())
        except BaseException as exc:  # noqa: BLE001 - reported at stop()
            self._error = exc

    def start(self, timeout: float = 10.0) -> "ServerHandle":
        self._thread.start()
        if not self.server.wait_ready(timeout):
            raise RuntimeError("server did not come up in time")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self, timeout: float = 60.0) -> RunReport | None:
        """Request the graceful drain and join the server thread."""
        self.server.request_shutdown()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError("server did not drain in time")
        if self._error is not None:
            raise RuntimeError("server crashed") from self._error
        return self.server.report

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(server: ReconstructionServer) -> ServerHandle:
    """Start ``server`` on a daemon thread and wait for its listeners."""
    return ServerHandle(server).start()
