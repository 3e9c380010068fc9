"""Listener/connection core of the serve tier's asyncio server.

:class:`LineProtocolServer` owns the front-door plumbing: TCP/unix
listeners, one reader coroutine per connection that splits lines and
parses them (:mod:`repro.serve.protocol`), strict-JSON replies that
survive unserializable payloads, connection bookkeeping, SIGTERM/SIGINT
wiring, and an orderly close of listeners → readers → background tasks.
What a *parsed* line means is the serving core
(:class:`~repro.serve.server.ReconstructionServer`), supplied through
three hooks:

``handle_record(conn_id, record, writer)``
    one accepted data record (may await — this is the backpressure
    point: blocking here parks the connection's reader).
``handle_command(cmd)``
    one command line; returns the JSON-able reply dict.
``on_disconnect(conn_id)``
    a connection fully closed (sync; spawn follow-up work with
    :meth:`_spawn`).

plus ``_run_core()``, the lifecycle body that decides what wraps the
listen-drain sequence (the metrics registry and the run report).
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading

from repro.obs.spans import span
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    CommandLine,
    ProtocolError,
    RecordLine,
    encode_response,
    error_response,
    parse_line,
)

__all__ = ["LineProtocolServer"]


class LineProtocolServer:
    """The front-door half of a line-protocol asyncio server.

    Args:
        socket_path: serve on this unix-domain socket (optional).
        host/port: serve on TCP (optional; ``port=0`` picks a free port,
            readable afterwards from :attr:`endpoints`).
        on_ready: called with the server once the listeners are up.

    A line longer than :data:`~repro.serve.protocol.MAX_LINE_BYTES` is
    an unrecoverable framing error: the client gets one fatal error line
    and the connection closes.
    """

    def __init__(
        self,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        on_ready=None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a unix socket path and/or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        #: called with the server once the listeners are up (CLI banner).
        self.on_ready = on_ready
        #: "unix:<path>" / "tcp:<host>:<port>" actually listening.
        self.endpoints: list[str] = []

        self._servers: list[asyncio.AbstractServer] = []
        self._conn_tasks: set[asyncio.Task] = set()
        self._bg_tasks: set[asyncio.Task] = set()
        self._next_conn_id = 0
        self._connections_total = 0
        self._records_accepted = 0
        self._records_rejected = 0
        self._records_dropped = 0
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------
    # Hooks the serving core implements
    # ------------------------------------------------------------------

    async def _run_core(self):
        """The lifecycle body; typically wraps
        :meth:`_serve_until_shutdown` + a drain and returns a report."""
        raise NotImplementedError

    async def handle_record(
        self, conn_id: int, record: RecordLine, writer
    ) -> None:
        raise NotImplementedError

    async def handle_command(self, cmd: CommandLine) -> dict:
        raise NotImplementedError

    def on_disconnect(self, conn_id: int) -> None:
        """A connection closed (after its writer is torn down)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def run(self):
        """Install signal handlers, run the serving core, clean up."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        handled_signals = []
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, self._shutdown.set)
                handled_signals.append(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass  # not the main thread, or platform without support
        try:
            return await self._run_core()
        finally:
            self._ready.set()  # never leave wait_ready() callers hanging
            for sig in handled_signals:
                self._loop.remove_signal_handler(sig)
            if self.socket_path is not None:
                try:
                    os.unlink(self.socket_path)
                except OSError:
                    pass

    def request_shutdown(self) -> None:
        """Trigger the graceful drain (thread-safe, idempotent)."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None or loop.is_closed():
            return
        loop.call_soon_threadsafe(event.set)

    def wait_ready(self, timeout: float | None = None) -> bool:
        """Block until the listeners are up (for out-of-thread callers)."""
        return self._ready.wait(timeout)

    async def _start_listeners(self) -> None:
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.socket_path,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(server)
            self.endpoints.append(f"unix:{self.socket_path}")
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self.port,
                limit=MAX_LINE_BYTES,
            )
            self._servers.append(server)
            bound = server.sockets[0].getsockname()
            self.port = bound[1]
            self.endpoints.append(f"tcp:{self.host}:{bound[1]}")

    async def _serve_until_shutdown(self) -> None:
        """Listeners up → ready → block until the shutdown event."""
        await self._start_listeners()
        self._ready.set()
        if self.on_ready is not None:
            self.on_ready(self)
        await self._shutdown.wait()

    async def _close_connections(self) -> None:
        """Close listeners, cancel readers, settle background tasks."""
        for server in self._servers:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._bg_tasks:
            await asyncio.gather(*self._bg_tasks, return_exceptions=True)

    def _spawn(self, coro) -> asyncio.Task:
        task = asyncio.get_running_loop().create_task(coro)
        self._bg_tasks.add(task)
        task.add_done_callback(self._bg_tasks.discard)
        return task

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self._connections_total += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(conn_id, reader, writer)
        except (asyncio.CancelledError, ConnectionError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass
            self.on_disconnect(conn_id)
            # Registered until here: _close_connections gathers this task
            # and so finds any eviction on_disconnect spawned.
            if task is not None:
                self._conn_tasks.discard(task)

    async def _send(self, writer, payload: dict) -> None:
        """Encode and write one response line, surviving bad payloads.

        Strict JSON (``allow_nan=False``) refuses non-finite floats; if
        a response ever contains one, the client must get an error line
        naming the problem, not a silently closed socket.
        """
        try:
            data = encode_response(payload)
        except ValueError as exc:
            data = encode_response(
                error_response(
                    f"response not serializable as strict JSON: {exc}"
                )
            )
        writer.write(data)
        await writer.drain()

    async def _serve_connection(self, conn_id: int, reader, writer) -> None:
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                # Line longer than MAX_LINE_BYTES: unrecoverable framing.
                await self._send(
                    writer, error_response("line too long", fatal=True)
                )
                return
            if not line:
                return  # EOF
            try:
                with span("parse"):
                    parsed = parse_line(
                        line.decode("utf-8", errors="replace"), conn_id
                    )
            except ProtocolError as exc:
                self._records_rejected += 1
                await self._send(
                    writer, error_response(str(exc), **{"async": True})
                )
                continue
            if parsed is None:
                continue
            if isinstance(parsed, RecordLine):
                await self.handle_record(conn_id, parsed, writer)
                continue
            response = await self.handle_command(parsed)
            await self._send(writer, response)
            if parsed.verb == "QUIT":
                return

    # ------------------------------------------------------------------
    # Shared stats
    # ------------------------------------------------------------------

    def connection_stats(self) -> dict:
        return {
            "endpoints": list(self.endpoints),
            "connections_total": self._connections_total,
            "connections_open": len(self._conn_tasks),
            "records_accepted": self._records_accepted,
            "records_rejected": self._records_rejected,
            "records_dropped": self._records_dropped,
        }
