"""Synchronous client for the reconstruction service's line protocol.

Used by ``examples/serve_demo.py``, the CI serve-smoke job, and tests.
One :class:`ServeClient` wraps one connection; records are pipelined
(written without waiting for acks) and commands are request/response.
Asynchronous error lines the server interleaves (rejected records,
tagged ``"async": true``) are collected on :attr:`async_errors` while
waiting for a command's reply, so a replay can assert that every record
it sent was actually accepted.

Against a *durable* server (``domo serve --wal-dir``) the client can
survive server crashes: :meth:`ServeClient.reconnect` re-dials the same
endpoint with bounded exponential backoff (covering the supervisor's
restart window), and :meth:`ServeClient.send_packets_resumable` resends
a trace from the server's ``records_durable`` offset — the count the
``RESULTS --since`` reply reports as safely in the WAL — so nothing is
lost and nothing is double-ingested.
"""

from __future__ import annotations

import json
import socket
import time

from repro.serve.protocol import (
    DEFAULT_STREAM,
    arrival_key_of,
    encode_record,
)

__all__ = ["ServeClient", "connect"]

#: errors that mean "the connection is gone, not the request is bad".
_RESET_ERRORS = (ConnectionError, BrokenPipeError, TimeoutError, OSError)


class ServeClient:
    """One connection to a running reconstruction server.

    ``dial`` (supplied by :func:`connect`) is a zero-argument callable
    returning a fresh connected socket; without it the client works as
    before but cannot :meth:`reconnect`.
    """

    def __init__(self, sock: socket.socket, *, dial=None) -> None:
        self._sock = sock
        self._rfile = sock.makefile("rb")
        self._dial = dial
        #: async error lines observed while reading command replies.
        self.async_errors: list[dict] = []
        #: successful re-dials performed by :meth:`reconnect`.
        self.reconnects = 0
        #: True once :meth:`close` ran (cleared by :meth:`reconnect`).
        self.closed = False

    # -- transport ------------------------------------------------------

    def send_packet(
        self,
        packet,
        stream: str = DEFAULT_STREAM,
        backend: str | None = None,
    ) -> None:
        """Pipeline one record (no ack; see :attr:`async_errors`).

        ``backend`` picks the stream's estimator backend; it only takes
        effect on the record that opens the stream (see the protocol
        module docstring).
        """
        self._sock.sendall(encode_record(stream, packet, backend=backend))

    def send_packets(
        self,
        packets,
        stream: str = DEFAULT_STREAM,
        backend: str | None = None,
    ) -> int:
        """Pipeline a batch of records in one buffered write."""
        chunk = b"".join(
            encode_record(stream, p, backend=backend) for p in packets
        )
        self._sock.sendall(chunk)
        return chunk.count(b"\n")

    def command(self, line: str) -> dict:
        """Send one command line, return its (non-async) JSON reply."""
        self._sock.sendall(line.strip().encode("utf-8") + b"\n")
        while True:
            raw = self._rfile.readline()
            if not raw:
                raise ConnectionError(
                    f"server closed the connection during {line!r}"
                )
            reply = json.loads(raw)
            if reply.get("async"):
                self.async_errors.append(reply)
                continue
            return reply

    # -- crash resilience ----------------------------------------------

    def reconnect(
        self,
        retries: int = 5,
        backoff_s: float = 0.2,
        deadline_s: float | None = None,
    ) -> None:
        """Re-dial the endpoint this client was created from.

        Retries with exponential backoff — a supervised server takes a
        backoff-and-recovery beat to come back after a crash.
        ``deadline_s`` bounds the *total* time spent (dialing plus all
        backoff sleeps), not just each attempt, so a caller gets a hard
        ceiling on how long a client-visible stall can last. Raises the
        last connection error once ``retries`` attempts or the deadline
        are exhausted, or :class:`RuntimeError` if the client has no
        dialer.
        """
        if self._dial is None:
            raise RuntimeError(
                "this client was built from a raw socket and cannot "
                "reconnect; use serve.connect() to get a re-dialable one"
            )
        self.close()
        deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        last: Exception | None = None
        for attempt in range(max(1, retries)):
            if deadline is not None and time.monotonic() >= deadline:
                break
            try:
                sock = self._dial()
            except _RESET_ERRORS as exc:
                last = exc
                sleep_s = backoff_s * (2 ** attempt)
                if deadline is not None:
                    sleep_s = min(sleep_s, deadline - time.monotonic())
                    if sleep_s <= 0:
                        continue  # deadline check at loop top ends this
                time.sleep(sleep_s)
                continue
            self._sock = sock
            self._rfile = sock.makefile("rb")
            self.reconnects += 1
            self.closed = False
            return
        if last is None:
            raise TimeoutError(
                f"reconnect deadline of {deadline_s}s expired before the "
                "first dial attempt"
            )
        raise last

    def durable_offset(self, stream: str = DEFAULT_STREAM) -> int:
        """How many of the stream's records the server holds durably.

        This is the resume offset after a crash: a sender that has
        pushed ``n`` records resends from index ``durable_offset()``.
        A stream the (restarted, non-durable) server does not know
        yields 0 — resend everything.
        """
        reply = self.results(stream, since=1 << 62)
        if not reply.get("ok"):
            return 0
        return int(reply.get("records_durable", 0))

    def send_packets_resumable(
        self,
        packets,
        stream: str = DEFAULT_STREAM,
        *,
        retries: int = 5,
        backoff_s: float = 0.2,
    ) -> int:
        """Send a full trace, surviving server crashes mid-send.

        Assumes this sender is the stream's only producer (the durable
        offset then equals an index into ``packets``). After each
        connection reset: reconnect with backoff, ask the server how
        many records are safely in its WAL, and resend the rest.
        Returns the number of resets survived.
        """
        packets = list(packets)
        resets = 0
        offset = 0
        while True:
            try:
                if offset < len(packets):
                    self.send_packets(packets[offset:], stream)
                # Round-trip a cheap command: flushes the pipelined
                # writes through and proves the server ingested them.
                self.durable_offset(stream)
                return resets
            except _RESET_ERRORS:
                resets += 1
                if resets > retries:
                    raise
                self.reconnect(retries=retries, backoff_s=backoff_s)
                offset = self.durable_offset(stream)

    # -- commands -------------------------------------------------------

    def health(self) -> dict:
        return self.command("HEALTH")

    def stats(self) -> dict:
        return self.command("STATS")

    def flush(self, stream: str = DEFAULT_STREAM) -> dict:
        return self.command(f"FLUSH {stream}")

    def results(self, stream: str = DEFAULT_STREAM, since: int = -1) -> dict:
        """Committed windows with a solve index above ``since``."""
        suffix = f" --since {since}" if since >= 0 else ""
        return self.command(f"RESULTS {stream}{suffix}")

    def estimates(self, stream: str = DEFAULT_STREAM) -> dict:
        """All committed estimates of a stream, decoded to real keys.

        Returns ``{ArrivalKey: float}`` merged across windows — directly
        comparable (``==``, bit-for-bit) with the batch pipeline's
        ``DomoReconstructor.estimate`` output.
        """
        reply = self.results(stream)
        if not reply.get("ok"):
            raise RuntimeError(f"RESULTS failed: {reply.get('error')}")
        merged = {}
        for window in reply["windows"]:
            for key_text, value in window["estimates"].items():
                merged[arrival_key_of(key_text)] = value
        return merged

    def quit(self) -> None:
        try:
            self.command("QUIT")
        except (ConnectionError, OSError):
            pass

    def close(self) -> None:
        """Close the connection; safe to call any number of times."""
        if self.closed:
            return
        self.closed = True
        try:
            self._rfile.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect(
    socket_path: str | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
    timeout: float | None = 30.0,
    connect_retries: int = 1,
    retry_backoff_s: float = 0.2,
) -> ServeClient:
    """Open a client over a unix socket (preferred) or TCP.

    ``timeout`` bounds both the dial and every subsequent read — a
    half-dead server surfaces as :class:`TimeoutError` rather than a
    hang. ``connect_retries`` > 1 retries a refused/absent endpoint
    with exponential backoff, which is what a client racing a
    supervised server's restart needs.
    """
    if socket_path is None and port is None:
        raise ValueError("need a unix socket path or a TCP port")

    def dial() -> socket.socket:
        if socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(timeout)
            try:
                sock.connect(socket_path)
            except BaseException:
                sock.close()
                raise
            return sock
        return socket.create_connection((host, port), timeout=timeout)

    last: Exception | None = None
    for attempt in range(max(1, connect_retries)):
        try:
            return ServeClient(dial(), dial=dial)
        except _RESET_ERRORS as exc:
            last = exc
            time.sleep(retry_backoff_s * (2 ** attempt))
    assert last is not None
    raise last
