"""The reconstruction service's newline-delimited wire protocol.

One TCP or unix-domain connection carries a sequence of LF-terminated
lines in either of two shapes:

* **Data records** — lines starting with ``{``: a JSON object in the
  JSONL trace-record shape (``id``/``path``/``t0``/``t_sink``/
  ``sum_of_delays``, exactly what ``domo simulate --save-stream``
  writes) plus an optional ``"stream"`` key naming the session the
  record belongs to (default ``"default"``) and an optional
  ``"backend"`` key choosing the stream's estimator backend (see
  :mod:`repro.backends`; only honored on the record that opens the
  stream — a conflicting backend on a live stream is an async error).
  Records are *not* acked
  individually — throughput would otherwise be round-trip bound — but a
  rejected record (unknown session capacity, malformed payload, drained
  stream) produces an asynchronous error line tagged ``"async": true``
  so a client draining its read side can account for every loss.
* **Commands** — any other non-empty line: a verb plus
  whitespace-separated arguments. Every command produces exactly one
  JSON response line (plus any pending async error lines before it).

Commands::

    HEALTH                       liveness + session headcount
    STATS                        server and per-session counters
    RESULTS <stream> [--since C] committed windows past the cursor C
    FLUSH <stream>               seal/solve/commit everything buffered
    QUIT                         close this connection

``--since`` takes a per-stream ``solve_index``: the reply lists the
committed windows with a higher index.

Responses are **strict JSON** (no NaN/Infinity tokens), one object per
line, always carrying ``"ok"``. Estimates are serialized with Python's
shortest-round-trip float repr, so a client parses back bit-identical
values — the property the RESULTS-vs-batch parity check relies on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.records import ArrivalKey
from repro.sim.io import TraceFormatError, packet_from_json, packet_to_json
from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket

__all__ = [
    "COMMANDS",
    "DEFAULT_STREAM",
    "MAX_LINE_BYTES",
    "CommandLine",
    "ProtocolError",
    "RecordLine",
    "committed_window_to_json",
    "encode_record",
    "encode_response",
    "error_response",
    "estimate_key",
    "parse_estimate_key",
    "parse_line",
    "parse_since",
]

DEFAULT_STREAM = "default"

#: commands the server understands (anything else errors).
COMMANDS = ("HEALTH", "STATS", "RESULTS", "FLUSH", "QUIT")

#: longest line the server accepts. A record line is ~100 bytes; 1 MiB
#: keeps a hostile/broken client from ballooning the reader buffer.
MAX_LINE_BYTES = 1 << 20


class ProtocolError(ValueError):
    """A line that is neither a valid record nor a valid command."""


@dataclass(frozen=True)
class RecordLine:
    """One parsed data record: which stream it feeds and the packet.

    ``backend`` carries the record's optional ``"backend"`` key: the
    estimator backend the stream should be opened with (``None`` = the
    server default). Only the *first* record of a stream can choose —
    a different backend on a live stream is an async error.
    """

    stream: str
    packet: ReceivedPacket
    backend: str | None = None


@dataclass(frozen=True)
class CommandLine:
    """One parsed command line."""

    verb: str
    args: tuple[str, ...]


def _validate_stream_id(stream) -> str:
    if not isinstance(stream, str) or not stream or len(stream) > 128:
        raise ProtocolError(
            f"stream id must be a nonempty string of <=128 chars, "
            f"got {stream!r}"
        )
    if any(c.isspace() for c in stream):
        raise ProtocolError(
            f"stream id must not contain whitespace, got {stream!r}"
        )
    return stream


def parse_line(line: str, lineno: int = 0) -> RecordLine | CommandLine | None:
    """Parse one wire line; ``None`` for blank lines.

    Raises :class:`ProtocolError` on malformed JSON, malformed record
    fields, or bad stream ids — the server turns that into an error
    line rather than closing the connection.
    """
    line = line.strip()
    if not line:
        return None
    if line.startswith("{"):
        try:
            item = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"record line is not valid JSON: {exc}")
        if not isinstance(item, dict):
            raise ProtocolError("record line is not a JSON object")
        stream = _validate_stream_id(item.pop("stream", DEFAULT_STREAM))
        backend = item.pop("backend", None)
        if backend is not None and (
            not isinstance(backend, str) or not backend
        ):
            raise ProtocolError(
                f"backend must be a nonempty string, got {backend!r}"
            )
        try:
            packet = packet_from_json(item, lineno)
        except TraceFormatError as exc:
            raise ProtocolError(str(exc))
        return RecordLine(stream=stream, packet=packet, backend=backend)
    parts = line.split()
    return CommandLine(verb=parts[0].upper(), args=tuple(parts[1:]))


def encode_record(
    stream: str, packet: ReceivedPacket, backend: str | None = None
) -> bytes:
    """One data record as wire bytes (the client-side encoder)."""
    item = {"stream": stream, **packet_to_json(packet)}
    if backend is not None:
        item["backend"] = backend
    return (json.dumps(item, separators=(",", ":")) + "\n").encode("utf-8")


#: the reply encoder: compact, strict (refuses NaN and infinities).
_RESPONSE_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_response(payload: dict) -> bytes:
    """One response object as a strict-JSON wire line."""
    return (_RESPONSE_ENCODER.encode(payload) + "\n").encode("utf-8")


def error_response(message: str, **extra) -> dict:
    return {"ok": False, "error": message, **extra}


def parse_since(token: str) -> int:
    """A ``--since`` argument: a solve index.

    Raises :class:`ProtocolError` naming the token for anything else.
    """
    try:
        return int(token)
    except ValueError:
        raise ProtocolError(
            f"--since takes an integer, got {token!r}"
        ) from None


# ----------------------------------------------------------------------
# Result serialization
# ----------------------------------------------------------------------


def estimate_key(key: ArrivalKey) -> str:
    """``ArrivalKey`` as the wire key ``"source:seqno:hop"``."""
    return f"{key.packet_id.source}:{key.packet_id.seqno}:{key.hop}"


def parse_estimate_key(text: str) -> tuple[int, int, int]:
    """Wire key back to ``(source, seqno, hop)``."""
    try:
        source, seqno, hop = (int(part) for part in text.split(":"))
    except ValueError:
        raise ProtocolError(f"malformed estimate key {text!r}") from None
    return source, seqno, hop


def arrival_key_of(text: str) -> ArrivalKey:
    """Wire key back to a real :class:`ArrivalKey`."""
    source, seqno, hop = parse_estimate_key(text)
    return ArrivalKey(PacketId(source, seqno), hop)


def committed_window_to_json(cw) -> dict:
    """One :class:`~repro.stream.engine.CommittedWindow` as a RESULTS row.

    Floats serialize via ``repr`` (shortest round-trip), so the decoded
    estimates compare bit-for-bit equal to the in-process values.
    """
    return {
        "solve_index": cw.solve_index,
        "grid_index": cw.grid_index,
        "start_ms": cw.window.start_ms,
        "end_ms": cw.window.end_ms,
        "num_estimates": cw.num_estimates,
        "estimates": {
            estimate_key(key): value for key, value in cw.estimates.items()
        },
    }
