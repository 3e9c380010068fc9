"""Span accounting and the serve-live poller, on synthetic inputs."""

from __future__ import annotations

import json
import select
import socket
import time

import pytest

from perfbench.serve_live import Connection, Poller, ReplayOutcome
from perfbench.tracing import Tracer, named_cpu_s


def span(span_id, parent, name, cpu):
    return {"id": span_id, "parent": parent, "name": name, "cpu": cpu}


def test_named_cpu_leaves_out_unnamed_callbacks():
    spans = [
        span(1, None, "serve.connection", 0.6),
        span(2, 1, "serve.parse", 0.2),
        span(3, None, "serve.callback", 0.3),
        span(4, 3, "serve.encode", 0.1),
        span(5, None, "serve.handoff", 0.5),
    ]
    # connection (parse inside it), encode and handoff; not the unnamed
    # callback's own 0.2 s.
    assert named_cpu_s(spans) == pytest.approx(1.2)


def test_span_name_may_come_from_the_arguments():
    tracer = Tracer()
    double = tracer.wrap(lambda x: f"call.{x}", lambda x: 2 * x)
    assert double(3) == 6 and double(4) == 8
    assert [record[2] for record in tracer.spans] == ["call.3", "call.4"]


def test_poll_replies_are_read_without_blocking(tmp_path):
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(tmp_path / "s.sock"))
    listener.listen()
    conn = Connection(str(tmp_path / "s.sock"))
    peer, _ = listener.accept()
    try:
        outcome = ReplayOutcome()
        poller = Poller(conn, ["a"], outcome)
        poller.send(with_stats=False)
        assert peer.recv(1024) == b"RESULTS a --since -1\n"

        started = time.perf_counter()
        poller.receive()  # nothing has arrived: returns at once
        assert time.perf_counter() - started < 0.1
        assert not poller.idle and not outcome.first_seen

        time.sleep(0.05)
        replied = time.perf_counter()
        reply = {
            "ok": True,
            "windows": [{"solve_index": 0, "end_ms": 5.0}],
            "last_solve_index": 0,
        }
        peer.sendall(json.dumps(reply).encode() + b"\n")
        assert select.select([conn.sock], [], [], 5.0)[0]
        poller.receive()
        # Stamped when read, not when the round was sent.
        assert poller.idle and outcome.first_seen[("a", 0)] >= replied
        assert outcome.window_end[("a", 0)] == 5.0 and poller.cursors["a"] == 0
    finally:
        peer.close()
        conn.close()
        listener.close()
