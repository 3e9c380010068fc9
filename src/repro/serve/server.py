"""The asyncio reconstruction server: many sockets in, one solver pool.

Architecture (one box per concurrency domain)::

    TCP / unix listeners      asyncio event loop          one thread per stream
    ────────────────────      ──────────────────          ─────────────────────
    conn reader ──parse──▶ lane inbox (bounded count) ──▶ domo-lane-a: session.ingest
    conn reader ──parse──▶ lane inbox (bounded count) ──▶ domo-lane-b: session.ingest
         │                                                        │
         └── commands ◀── strict-JSON replies                     └─▶ SharedSolverPool

The listener/connection half (readers, line parsing, strict-JSON
replies, signal wiring, orderly close) lives in
:class:`~repro.serve.core.LineProtocolServer`; this module is the
serving core — what a parsed line *means*:

* **Readers** (one coroutine per connection) put records into their
  stream's lane and do not wait for the ingest. A lane counts the
  records put and not yet ingested; at ``queue_capacity`` the reader
  parks, which stops it reading the socket, which fills the kernel
  buffers, which blocks the client's ``send`` — backpressure is the
  transport's own flow control, so an overloaded server slows producers
  down instead of buffering without bound or dropping accepted records.
* **Lanes** (one engine thread per stream, ``domo-lane-<stream>``) take
  records off the lane's inbox in order and hand at most ``chunk`` of
  them to each ``session.ingest`` call, so the event loop never blocks
  on a solve and each engine only ever sees one call at a time.
  ``FLUSH``, ``RESULTS``' commit of a backlog and the eviction flush
  are calls queued on the same inbox: everything sent before them is
  ingested first, and the loop awaits their results.
* **Solves** are multiplexed over one shared
  :class:`~repro.serve.pool.SharedSolverPool` with round-robin fairness
  across streams.
* **Shutdown** (SIGTERM/SIGINT or ``request_shutdown``) drains in
  order: stop accepting, close readers and settle their evictions, let
  every lane ingest what it holds and join its thread, final-flush every
  session (sealing and committing every open window), close the pool,
  then write the ``domo.run_report/1`` with every session's and the
  pool's metrics merged in.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import queue
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


class _Call:
    """A function a lane's thread runs after every item queued before it."""

    __slots__ = ("fn", "args", "future")

    def __init__(self, fn, args) -> None:
        self.fn = fn
        self.args = args
        self.future = concurrent.futures.Future()

    def run(self) -> None:
        if not self.future.set_running_or_notify_cancel():
            return
        try:
            result = self.fn(*self.args)
        except Exception as exc:  # noqa: BLE001 - the awaiter raises it
            self.future.set_exception(exc)
        else:
            self.future.set_result(result)


class _StreamLane:
    """One stream's engine thread, fed in order through its inbox.

    The event loop puts records, :class:`_Call` items and, last, a
    ``None`` that ends the thread; only the lane's thread touches the
    session's engine.
    """

    def __init__(
        self, session: StreamSession, capacity: int, chunk: int
    ) -> None:
        self.session = session
        self.capacity = capacity
        self.chunk = chunk
        self.inbox: queue.SimpleQueue = queue.SimpleQueue()
        self._loop = asyncio.get_running_loop()
        self._lock = threading.Lock()
        #: records put and not yet ingested (STATS ``queue_depth``).
        self.pending = 0
        #: a reader is parked on :attr:`_room` (guarded by :attr:`_lock`).
        self._waiting = False
        self._room = asyncio.Event()
        #: the queued eviction flush, once the last feeder left; from
        #: then on records are refused and nothing else is queued, since
        #: the thread exits after it.
        self.eviction: asyncio.Future | None = None
        #: first ingest failure (e.g. a strict-validation rejection);
        #: once set, queued records are dropped and new ones refused
        #: with an error naming this reason.
        self.failed: str | None = None
        #: records dropped behind a failure.
        self.dropped = 0
        self.thread = threading.Thread(
            target=self._run,
            name=f"domo-lane-{session.stream_id}",
            daemon=True,
        )
        self.thread.start()

    # -- event-loop side --------------------------------------------------

    @property
    def full(self) -> bool:
        return self.pending >= self.capacity

    async def put(self, packet) -> None:
        """Queue one record, parking while the lane is full."""
        while True:
            with self._lock:
                if self.pending < self.capacity:
                    self.pending += 1
                    break
                self._waiting = True
                self._room.clear()
            await self._room.wait()
        self.inbox.put(packet)

    def call(self, fn, *args) -> asyncio.Future:
        """Run ``fn(*args)`` on the lane's thread after everything queued
        so far."""
        item = _Call(fn, args)
        self.inbox.put(item)
        return asyncio.wrap_future(item.future, loop=self._loop)

    def stop(self) -> None:
        """Let the thread exit once it has run what is queued."""
        self.inbox.put(None)

    # -- the lane's thread ------------------------------------------------

    def _run(self) -> None:
        batch: list = []
        while True:
            try:
                # Block only with nothing in hand: a batch in hand is
                # ingested as soon as the inbox holds nothing more.
                item = self.inbox.get(block=not batch)
            except queue.Empty:
                self._ingest(batch)
                batch = []
                continue
            if item is not None and not isinstance(item, _Call):
                batch.append(item)
                if len(batch) == self.chunk:
                    self._ingest(batch)
                    batch = []
                continue
            if batch:
                self._ingest(batch)
                batch = []
            if item is None:
                return
            item.run()

    def _fail(self, exc: Exception) -> None:
        # Fail closed: the stream stops, the lane keeps taking items, so
        # backpressure, eviction and shutdown go on.
        self.failed = f"{type(exc).__name__}: {exc}"
        self.session.mark_failed(self.failed)

    def _ingest(self, batch: list) -> None:
        if self.failed is None:
            try:
                self.session.ingest(batch)
            except Exception as exc:  # noqa: BLE001 - any engine error
                self._fail(exc)
                self.dropped += len(batch)
        else:
            self.dropped += len(batch)
        with self._lock:
            self.pending -= len(batch)
            if not self._waiting:
                return
            self._waiting = False
        self._loop.call_soon_threadsafe(self._room.set)

    def collect(self) -> None:
        """Commit the stream's finished solves (on the lane's thread)."""
        if self.session.failed is None:
            try:
                self.session.collect()
            except Exception as exc:  # noqa: BLE001 - any engine error
                self._fail(exc)
                raise


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
        queue_capacity: most records a stream holds put and not yet
            ingested — the backpressure high-watermark.
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
        # Guards _lanes itself (not lane internals): entries are only
        # added, on the event loop, but stats() snapshots the map from
        # arbitrary threads (tests, embedding callers).
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
        # Evictions started by disconnects run on their lanes, so
        # _close_connections settles them before the lanes stop.
        await self._close_connections()
        with self._lanes_lock:
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.stop()

        def finish() -> None:
            # Every lane has ingested what it held once its thread is
            # gone; then seal/solve/commit every open window and shut
            # the solver pool down.
            for lane in lanes:
                lane.thread.join()
            self.manager.close()

        await asyncio.to_thread(finish)

    def on_disconnect(self, conn_id: int) -> None:
        for session in self.manager.disconnect(conn_id):
            self._spawn(self._evict_when_drained(session))

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------

    async def handle_record(
        self, conn_id: int, record: RecordLine
    ) -> dict | None:
        stream = record.stream
        try:
            lane = self._lane(stream, backend=record.backend)
        except (SessionLimitError, ValueError) as exc:
            # ValueError covers an unknown backend name and a
            # BackendMismatchError (a live stream asked to switch).
            return self._refuse(stream, str(exc))
        # ``eviction`` is set when the eviction flush is queued, and
        # ``drained`` only at its end: records landing in between must
        # be refused, not accepted and then silently lost.
        if lane is None or lane.eviction is not None:
            return self._refuse(stream, f"stream {stream!r} is drained")
        if lane.failed is not None:
            return self._refuse(
                stream, f"stream {stream!r} failed: {lane.failed}"
            )
        lane.session.add_owner(conn_id)
        # The backpressure point: a full lane parks this reader (and
        # thereby the client's sends) until its thread catches up.
        await lane.put(record.packet)
        self._records_accepted += 1
        return None

    def record_must_wait(self, record: RecordLine) -> bool:
        lane = self._lanes.get(record.stream)
        return lane is not None and lane.full

    def _refuse(self, stream: str, message: str) -> dict:
        self._records_rejected += 1
        return error_response(message, stream=stream, **{"async": True})

    def _lane(
        self, stream_id: str, backend: str | None = None
    ) -> _StreamLane | None:
        """The stream's lane, opened (session and thread) on first use;
        None for a stream that is already drained and has none."""
        lane = self._lanes.get(stream_id)
        if lane is not None:
            if backend is not None and backend != lane.session.backend:
                raise BackendMismatchError(
                    f"stream {stream_id!r} runs backend "
                    f"{lane.session.backend!r}; cannot switch to {backend!r}"
                )
            return lane
        session = self.manager.get_or_create(stream_id, backend=backend)
        if session.drained:
            return None  # recovered as drained: nothing to ingest into
        lane = _StreamLane(session, self.queue_capacity, self.chunk)
        with self._lanes_lock:
            self._lanes[stream_id] = lane
        return lane

    async def _evict_when_drained(self, session: StreamSession) -> None:
        """Last feeder left: flush the stream behind its queued records.

        The eviction flush is the lane's last call; its thread exits
        after it.
        """
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
        # Owners are only added in handle_record, after the lane exists.
        lane = self._lanes[session.stream_id]
        # A new connection may have adopted the stream while we waited,
        # and it may have left again, starting a second eviction.
        if session.num_owners or lane.eviction is not None:
            return
        # No await between the owner re-check and this: every record
        # arriving from here on is refused in handle_record.
        lane.eviction = lane.call(self.manager.evict, session)
        lane.stop()
        await lane.eviction

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
        if (
            lane is not None
            and lane.eviction is None
            and session.engine.backlog
        ):
            # Commit the solves that finished since the stream's last
            # record now, not when its next record arrives.
            await lane.call(lane.collect)
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
        session = self.manager.get(stream_id)
        if session is None:
            return error_response(
                f"unknown stream {stream_id!r}", stream=stream_id
            )
        lane = self._lanes.get(stream_id)
        if lane is not None and lane.failed is not None:
            return error_response(
                f"stream {stream_id!r} failed: {lane.failed}",
                stream=stream_id,
            )
        new_commits = 0
        # A drained session (evicted, or recovered as drained) has
        # released its solver lane: report it, flush nothing.
        if not session.drained:
            # A recovered stream gets its lane on its first FLUSH.
            lane = lane or self._lane(stream_id)
            if lane.eviction is None:
                # Queued behind every record sent before this FLUSH, so
                # the flush covers them.
                new_commits = await lane.call(session.flush)
            else:
                # The eviction flush, already queued, commits it all.
                await asyncio.wait([lane.eviction])
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
                entry["queue_depth"] = lane.pending
                entry["queue_capacity"] = self.queue_capacity
                # lane.failed (ingest-side) and the session's own failed
                # (drain-side) record the same condition; surface
                # whichever fired first.
                entry["failed"] = lane.failed or entry.get("failed")
        stats["server"] = {
            **self.connection_stats(),
            "records_dropped": sum(lane.dropped for _, lane in lanes),
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
