"""serve-live: open-loop replay of four sink streams into ``domo serve``.

The server is started through the ``domo serve`` CLI with
``--lateness-ms 2000 --wal-dir DIR`` and defaults otherwise (serial
pool, interval fsync, a snapshot every 256 WAL records, automatic
window span). One generator thread owns two unix-socket connections:
one feeds every stream's records in merged sink-arrival order at one
fixed total rate (open loop: a record is due at ``start + i / rate``
whether or not the server kept up); the other polls ``RESULTS <stream>
--since`` for every stream at a fixed period.

Record-to-result latency is measured per committed window: from the
moment the record that lets the stream's watermark pass the window's end
was due to be sent, to the first ``RESULTS`` reply that shows the window.
Queue wait counts; window length and lateness do not. Windows first
committed by the final ``FLUSH`` have no such record and are left out.

The served window span is whatever the server's warm-up buffer chose
(the automatic span is not pinned): at the base networks it is 2.0-2.5 s
against the batch planner's ~24 s, with a higher MAE than batch on the
same streams. That is a known defect, and every run prints both
spans and both MAEs so it stays visible.
"""

from __future__ import annotations

import bisect
import collections
import json
import math
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from perfbench import checks, hostspeed, layers
from perfbench.common import (
    ROOT,
    BenchError,
    RunResult,
    median,
    program_env,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from perfbench.passes import SETUPS, generate_inputs
from perfbench.tracing import as_dicts, named_cpu_s

#: offered load: records per second, summed over all streams.
RATE_PER_S = 60.0
#: period of the RESULTS poll over every stream.
POLL_PERIOD_S = 0.005
#: the README streaming example's lateness allowance.
LATENESS_MS = 2000.0
#: a run whose generator sent its records later than this (p90) does
#: not measure the server; its info line marks it invalid.
LAG_P90_BOUND_MS = 5.0
#: how long the server may take to drain what was sent before FLUSH.
QUIESCE_TIMEOUT_S = 60.0
#: how long a starting server may take to answer HEALTH.
HEALTH_TIMEOUT_S = 60.0
#: how long the server may take to drain and exit after SIGTERM.
STOP_TIMEOUT_S = 120.0
SOCKET_NAME = "domo.sock"


# ----------------------------------------------------------------------
# A line-oriented unix-socket connection
# ----------------------------------------------------------------------


class Connection:
    """Blocking sends, buffered line reads, non-blocking polling."""

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        self.sock.connect(path)
        self._buffer = b""

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def readline(self) -> bytes:
        while b"\n" not in self._buffer:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def ready_lines(self) -> list[bytes]:
        """Lines already available, without blocking."""
        while select.select([self.sock], [], [], 0.0)[0]:
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise BenchError("server closed the connection")
            self._buffer += chunk
        *lines, self._buffer = self._buffer.split(b"\n")
        return lines

    def command(self, line: str) -> dict:
        self.send(line.encode() + b"\n")
        return json.loads(self.readline())

    def close(self) -> None:
        self.sock.close()


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


@dataclass
class Replay:
    """The merged send order and what the checks need per stream."""

    streams: list[str]
    #: (stream, packet, wire line) in send order.
    records: list[tuple[str, object, bytes]]
    ground_truth: dict
    warmup: list[bytes]

    def prefix(self, seconds: float) -> "Replay":
        """The records due within ``seconds`` at the fixed rate."""
        count = min(len(self.records), math.ceil(RATE_PER_S * seconds))
        return Replay(self.streams, self.records[:count], self.ground_truth,
                      self.warmup)


def load_replay(inputs: Path) -> Replay:
    from repro.serve.protocol import encode_record
    from repro.sim.io import load_trace

    streams = json.loads((inputs / "streams.json").read_text())
    merged = []
    ground_truth = {}
    for order, stream in enumerate(streams):
        trace = load_trace(inputs / f"{stream}.json")
        ground_truth[stream] = trace.ground_truth
        for packet in trace.received:
            merged.append((packet.sink_arrival_ms, order, stream, packet))
    merged.sort(key=lambda item: item[:2])
    records = [
        (stream, packet, encode_record(stream, packet))
        for _, _, stream, packet in merged
    ]
    warmup = [
        encode_record("warmup", packet)
        for packet in load_trace(inputs / "warmup.json").received
    ]
    return Replay(streams, records, ground_truth, warmup)


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------


class Server:
    """``domo serve`` in a child process (optionally traced)."""

    def __init__(self, home: Path, traced: bool) -> None:
        self.home = home
        self.spans_path = home / "spans.json"
        args = [
            "serve",
            "--socket", SOCKET_NAME,
            "--lateness-ms", str(LATENESS_MS),
            "--wal-dir", "wal",
        ]
        if traced:
            command = [
                sys.executable,
                str(ROOT / "perfbench" / "serve_launcher.py"),
                "--spans", str(self.spans_path),
                *args,
            ]
        else:
            command = [sys.executable, "-m", "repro.cli", *args]
        self.stderr = open(home / "server.stderr", "wb")
        self.process = subprocess.Popen(
            command,
            cwd=home,
            env=program_env(),
            stdout=subprocess.DEVNULL,
            stderr=self.stderr,
        )
        self.socket_path = os.path.relpath(home / SOCKET_NAME)

    @property
    def pid(self) -> int:
        return self.process.pid

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise BenchError(
                    f"server exited with {self.process.returncode}: "
                    f"{self.stderr_tail()}"
                )
            try:
                conn = Connection(self.socket_path, timeout=5.0)
            except OSError:
                time.sleep(0.02)
                continue
            try:
                if conn.command("HEALTH").get("ok"):
                    return
            finally:
                conn.close()
        raise BenchError("server did not answer HEALTH in time")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.stderr.close()
        if self.process.returncode not in (0, -signal.SIGTERM):
            raise BenchError(
                f"server exited with {self.process.returncode}: "
                f"{self.stderr_tail()}"
            )

    def stderr_tail(self) -> str:
        return (self.home / "server.stderr").read_text(errors="replace")[-2000:]


def warm_up(server: Server, replay: Replay) -> Connection:
    """Feed and flush the small warm-up stream; the connection stays
    open so the warm-up session is not evicted mid-measurement."""
    conn = Connection(server.socket_path)
    conn.send(b"".join(replay.warmup))
    reply = conn.command("FLUSH warmup")
    if not reply.get("ok"):
        conn.close()
        raise BenchError(f"warm-up FLUSH failed: {reply}")
    conn.command("RESULTS warmup")
    return conn


# ----------------------------------------------------------------------
# The replay
# ----------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """What one replay measured and received."""

    start: float = 0.0
    end: float = 0.0
    server_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    lags_s: list[float] = field(default_factory=list)
    polls: int = 0
    #: (stream, solve_index) -> perf_counter time first seen.
    first_seen: dict = field(default_factory=dict)
    #: (stream, solve_index) -> window end_ms, for windows seen before FLUSH.
    window_end: dict = field(default_factory=dict)
    async_errors: list[str] = field(default_factory=list)
    #: stream -> final RESULTS rows after FLUSH.
    final_rows: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)


class Poller:
    """``RESULTS <stream> --since`` rounds over every stream, never
    waited for.

    Replies are read only when the generator's ``select`` shows them,
    and a window is stamped as seen when the reply showing it is read.
    A slow reply therefore delays that stamp, which counts in
    record-to-result latency, but never the records due meanwhile, so
    generator lag measures only the generator and the host. A new round
    goes out only after every reply of the previous one has arrived, so
    the cursors are current.
    """

    def __init__(self, conn: Connection, streams, outcome: ReplayOutcome):
        self.conn = conn
        self.streams = streams
        self.outcome = outcome
        self.cursors = {s: -1 for s in streams}
        #: what each awaited reply answers: a stream, or None for STATS.
        self.awaiting: collections.deque = collections.deque()
        #: the latest STATS reply.
        self.stats: dict | None = None

    @property
    def idle(self) -> bool:
        return not self.awaiting

    def send(self, with_stats: bool) -> None:
        # STATS first: when it shows the server quiesced, the RESULTS
        # answered after it on the same connection hold every window.
        lines = ["STATS"] if with_stats else []
        lines += [f"RESULTS {s} --since {self.cursors[s]}" for s in self.streams]
        self.awaiting.extend(([None] if with_stats else []) + self.streams)
        self.conn.send("".join(line + "\n" for line in lines).encode())
        self.outcome.polls += 1

    def receive(self) -> None:
        lines = self.conn.ready_lines()
        seen = time.perf_counter()
        for line in lines:
            stream = self.awaiting.popleft()
            reply = json.loads(line)
            if stream is None:
                self.stats = reply
                continue
            if not reply.get("ok"):
                continue  # stream not created yet
            for row in reply["windows"]:
                key = (stream, row["solve_index"])
                if key not in self.outcome.first_seen:
                    self.outcome.first_seen[key] = seen
                    self.outcome.window_end[key] = row["end_ms"]
            self.cursors[stream] = reply["last_solve_index"]


def _collect_errors(feed: Connection, outcome: ReplayOutcome) -> None:
    """Records get no reply; a line on the feed is a rejection."""
    for line in feed.ready_lines():
        message = json.loads(line)
        if message.get("async"):
            outcome.async_errors.append(message.get("error", ""))


def _quiesced(stats: dict, sent: dict) -> bool:
    streams = stats.get("streams", {})
    return all(
        name in streams
        and streams[name]["records_in"] >= count
        and streams[name]["backlog"] == 0
        and streams[name].get("queue_depth", 0) == 0
        for name, count in sent.items()
    )


def replay_into(
    server: Server, replay: Replay, feed: Connection, poll: Connection
) -> ReplayOutcome:
    outcome = ReplayOutcome()
    poller = Poller(poll, replay.streams, outcome)
    sent = collections.Counter(stream for stream, _, _ in replay.records)
    interval = 1.0 / RATE_PER_S
    cpu_start = tree_cpu_s(server.pid)
    start = time.perf_counter() + 0.02
    outcome.start = start
    next_poll = start
    index = 0
    total = len(replay.records)
    deadline = math.inf
    # One loop sends records when due, sends a poll round each period
    # and reads whatever replies have arrived. Once every record is
    # sent, rounds carry STATS too, and the replay ends at the first
    # complete round whose STATS shows the server quiesced, so windows
    # sealed by the last records are timed like every other window.
    while True:
        now = time.perf_counter()
        if index < total and now >= start + index * interval:
            last = index
            while last < total and start + last * interval <= now:
                last += 1
            feed.send(b"".join(r[2] for r in replay.records[index:last]))
            done = time.perf_counter()
            outcome.lags_s.extend(
                done - (start + i * interval) for i in range(index, last)
            )
            index = last
            if index == total:
                deadline = done + QUIESCE_TIMEOUT_S
            continue
        if poller.idle:
            if poller.stats is not None and _quiesced(poller.stats, sent):
                break
            if now >= next_poll:
                poller.send(with_stats=index == total)
                next_poll += POLL_PERIOD_S
                if next_poll < now:
                    next_poll = now + POLL_PERIOD_S
                continue
        if now > deadline:
            raise BenchError(
                f"server did not drain the replay in time: sent {dict(sent)}, "
                f"server streams {(poller.stats or {}).get('streams')}"
            )
        wake = [next_poll] if poller.idle else [now + POLL_PERIOD_S]
        if index < total:
            wake.append(start + index * interval)
        readable, _, _ = select.select(
            [feed.sock, poll.sock], [], [], max(0.0, min(wake) - now)
        )
        if poll.sock in readable:
            poller.receive()
        if feed.sock in readable:
            _collect_errors(feed, outcome)
    outcome.end = time.perf_counter()
    outcome.server_cpu_s = tree_cpu_s(server.pid) - cpu_start

    for stream in replay.streams:
        feed.send(f"FLUSH {stream}\n".encode())
    flushed = 0
    while flushed < len(replay.streams):
        message = json.loads(feed.readline())
        if message.get("async"):
            outcome.async_errors.append(message.get("error", ""))
        elif not message.get("ok"):
            raise BenchError(f"FLUSH failed: {message}")
        else:
            flushed += 1
    for stream in replay.streams:
        outcome.final_rows[stream] = poll.command(
            f"RESULTS {stream}"
        )["windows"]
    outcome.stats = poll.command("STATS")
    outcome.peak_rss_mb = tree_peak_rss_mb(server.pid)
    return outcome


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def served_estimates(outcome: ReplayOutcome) -> dict:
    """(stream, "source:seqno:hop") -> served estimate."""
    return {
        (stream, key): value
        for stream, rows in outcome.final_rows.items()
        for row in rows
        for key, value in row["estimates"].items()
    }


def r2r_latencies_ms(replay: Replay, outcome: ReplayOutcome) -> list[float]:
    """Record-to-result latency of every window seen before FLUSH."""
    interval = 1.0 / RATE_PER_S
    watermarks: dict[str, list[float]] = {s: [] for s in replay.streams}
    due: dict[str, list[float]] = {s: [] for s in replay.streams}
    for i, (stream, packet, _) in enumerate(replay.records):
        # The engine's own expression: watermark = max sink - lateness.
        watermarks[stream].append(packet.sink_arrival_ms - LATENESS_MS)
        due[stream].append(outcome.start + i * interval)
    latencies = []
    for (stream, solve_index), end_ms in outcome.window_end.items():
        trigger = bisect.bisect_left(watermarks[stream], end_ms)
        if trigger == len(watermarks[stream]):
            continue  # sealed without a trigger record: not timed
        latencies.append(
            1000.0
            * (outcome.first_seen[(stream, solve_index)] - due[stream][trigger])
        )
    return latencies


def batch_reference(replay: Replay):
    """Batch estimates of the same streams (the records actually sent)."""
    from repro.core.pipeline import DomoConfig, DomoReconstructor
    from repro.serve.protocol import estimate_key

    estimates = {}
    span = {}
    for stream in replay.streams:
        packets = [p for s, p, _ in replay.records if s == stream]
        result = DomoReconstructor(DomoConfig()).estimate(packets)
        span[stream] = result.stats["window_span_ms"]
        for key, value in result.estimates.items():
            estimates[(stream, estimate_key(key))] = value
    return estimates, span


def mean_abs_error_ms(estimates: dict, replay: Replay) -> float:
    from repro.serve.protocol import parse_estimate_key
    from repro.sim.packet import PacketId

    errors = []
    for (stream, key), value in estimates.items():
        source, seqno, hop = parse_estimate_key(key)
        truth = replay.ground_truth[stream][PacketId(source, seqno)]
        errors.append(abs(value - truth.arrival_times_ms[hop]))
    return statistics.fmean(errors)


def served_spans(outcome: ReplayOutcome) -> list[float]:
    return sorted(
        {
            row["end_ms"] - row["start_ms"]
            for rows in outcome.final_rows.values()
            for row in rows
        }
    )


# ----------------------------------------------------------------------
# Per-layer numbers of a traced replay
# ----------------------------------------------------------------------


def traced_layers(server: Server, outcome: ReplayOutcome, streams) -> dict:
    data = json.loads(server.spans_path.read_text())
    spans = as_dicts(data["spans"])
    inside = [s for s in spans if outcome.start <= s["start"] <= outcome.end]
    values = layers.span_metrics(inside)
    # Of the server's CPU, the share inside spans that name a layer; the
    # rest is the event loop's own, unnamed callbacks' and thread upkeep.
    named = named_cpu_s(inside)
    values["serve.loop_cpu_s"] = outcome.server_cpu_s - named
    values["trace.coverage"] = (
        named / outcome.server_cpu_s if outcome.server_cpu_s > 0 else 0.0
    )
    telemetry = [data["streams"][s] for s in streams if s in data["streams"]]
    values["stream.windows_committed"] = sum(
        t["windows_committed"] for t in telemetry
    )
    values["stream.peak_resident_packets"] = sum(
        t["peak_resident_packets"] for t in telemetry
    )
    values["stream.max_backlog"] = max(
        (t["max_backlog"] for t in telemetry), default=0
    )
    values["stream.late_quarantined"] = sum(
        t["late_quarantined"] for t in telemetry
    )
    return values


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def _set_up(ctx, index: int, traced: bool):
    home = ctx.workdir / f"{'traced' if traced else 'setup'}-{index}"
    manifest = generate_inputs("serve-live", ctx.seed, ctx.size, home)
    replay = load_replay(home).prefix(ctx.seconds)
    server = Server(home, traced)
    try:
        server.wait_healthy()
        return manifest, replay, server, warm_up(server, replay)
    except BaseException:
        server.stop()
        raise


def stop(server: Server, connections: list[Connection]) -> None:
    """SIGTERM the server, then close the client connections.

    In this order on purpose: a connection that closes while the server
    is shutting down starts an eviction drain that can race the shutdown
    drain of the same stream (both close its WAL), and the server then
    exits with an error. Clients still connected at SIGTERM are settled
    before the shutdown drain starts.
    """
    try:
        server.stop()
    finally:
        for conn in connections:
            conn.close()


def _replay(server: Server, replay: Replay, warm: Connection) -> ReplayOutcome:
    connections = [warm]
    try:
        connections.append(Connection(server.socket_path))
        connections.append(Connection(server.socket_path))
        return replay_into(server, replay, *connections[1:])
    finally:
        stop(server, connections)


def check_replay(outcome: ReplayOutcome, served, batch, latencies) -> list[str]:
    return checks.served_results(
        set(served), set(batch), outcome.async_errors
    ) + checks.nonnegative_latencies(latencies)


def run_serve(ctx) -> RunResult:
    # Host speed probes bracket every set-up and the replay. No probe
    # runs beside the replay (it would compete with the server for the
    # cores), so the server's CPU time is scaled by the median of all
    # probes; the latencies, which follow host steal that no probe sees,
    # stay raw.
    probes = hostspeed.Probes()
    setups = []
    for index in range(SETUPS):
        before = probes.take()
        started = time.perf_counter()
        manifest, replay, server, warm = _set_up(ctx, index, traced=False)
        setups.append((time.perf_counter() - started, before))
        if index < SETUPS - 1:
            stop(server, [warm])
    probes.take()
    outcome = _replay(server, replay, warm)
    probes.take()

    batch, batch_span = batch_reference(replay)
    served = served_estimates(outcome)
    latencies = r2r_latencies_ms(replay, outcome)
    if not latencies:
        raise BenchError("no window appeared in RESULTS before the final FLUSH")
    r2r_p50, r2r_p90 = numpy.percentile(latencies, [50, 90])
    lag_p90 = layers.lag_p90_ms(outcome.lags_s)
    problems = check_replay(outcome, served, batch, latencies)
    missing_packets = {
        (stream, key.rsplit(":", 1)[0]) for stream, key in set(batch) - set(served)
    }
    failed = len(outcome.async_errors) + len(missing_packets)
    served_mae = mean_abs_error_ms(served, replay)
    batch_mae = mean_abs_error_ms(batch, replay)
    spans = served_spans(outcome)
    cpu_ms_per_rec = 1000.0 * outcome.server_cpu_s / len(replay.records)
    info = {
        "manifest": {
            **manifest,
            "records_sent": len(replay.records),
            "served_window_span_ms": spans,
            "served_windows": sum(len(r) for r in outcome.final_rows.values()),
        },
        "offered_rate_per_s": RATE_PER_S,
        "poll_period_ms": 1000.0 * POLL_PERIOD_S,
        "lateness_ms": LATENESS_MS,
        "server_cpu_ms_per_rec": cpu_ms_per_rec,
        "r2r_windows": len(latencies),
        "r2r_p50_ms": r2r_p50,
        "r2r_p90_ms": r2r_p90,
        "served_mae_ms": served_mae,
        "batch_mae_ms": batch_mae,
        "batch_window_span_ms": batch_span,
        "loadgen_lag_p90_ms": lag_p90,
        "replay_s": outcome.end - outcome.start,
        "raw_setup_seconds": [round(s, 4) for s, _ in setups],
        **probes.info(),
    }

    invalid = []
    if lag_p90 > LAG_P90_BOUND_MS:
        invalid.append(
            f"generator lag p90 {lag_p90:.2f} ms > {LAG_P90_BOUND_MS} ms"
        )
    if ctx.trace:
        _, _, server, warm = _set_up(ctx, 0, traced=True)
        traced = _replay(server, replay, warm)
        traced_served = served_estimates(traced)
        traced_lat = r2r_latencies_ms(replay, traced)
        problems += check_replay(traced, traced_served, batch, traced_lat)
        problems += checks.same_estimates(
            served, traced_served, "traced replay vs untraced replay"
        )
        values = traced_layers(server, traced, replay.streams)
        info["manifest"]["fifo_pairs_per_window_p50"] = values[
            "window_build.fifo_pairs_p50"
        ]
        values.update(
            {
                "stream.window_span_ms": max(served_spans(traced), default=0.0),
                "serve.records_dropped": traced.stats["server"]["records_dropped"],
                "serve.batch_mae_ms": batch_mae,
                "loadgen.lag_p90_ms": layers.lag_p90_ms(traced.lags_s),
                "loadgen.records_sent": len(replay.records),
                "loadgen.polls": traced.polls,
                "loadgen.r2r_windows": len(traced_lat),
                # The untraced replay's: tracing would add its overhead.
                "loadgen.r2r_p50_ms": r2r_p50,
                "loadgen.r2r_p90_ms": r2r_p90,
                "trace.overhead": traced.server_cpu_s / outcome.server_cpu_s - 1.0,
            }
        )
        info["traced_r2r_p50_ms"] = median(traced_lat)
        metrics = layers.complete(values)
    else:
        metrics = {
            "setup_s": (median(probes.adjust(*s) for s in setups), "s"),
            "peak_rss_mb": (outcome.peak_rss_mb, "MB"),
            "throughput_per_s": (
                len(replay.records) / probes.adjust(outcome.server_cpu_s), "1/s"
            ),
            "error_ms": (served_mae, "ms"),
        }
    return RunResult(
        attempted=len(replay.records),
        failed=failed,
        metrics=metrics,
        problems=problems,
        invalid=invalid,
        info=info,
    )
