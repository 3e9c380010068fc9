"""The streaming reconstruction engine: ingest -> seal -> solve -> commit.

The paper's PC side is an online system (§V): the sink streams packets in
and the preprocessor/solver run continuously. This module is that
architecture. Packets are ingested in sink-arrival order (with a
configurable lateness allowance for reordering), assigned incrementally
to the overlapping time windows of §IV.B, and each window walks an
explicit state machine:

    open ──watermark──▶ sealed ──submit──▶ solving ──drain──▶ committed

* **open** — the window can still gain members; packets are appended in
  O(log w) via a bisect over the shared window grid.
* **sealed** — the watermark (``max sink arrival seen − lateness``)
  passed the window's end: membership is frozen, the constraint system
  is built and submitted to the :class:`~repro.runtime.executor
  .WindowExecutor`'s non-blocking submit/drain engine.
* **solving** — the executor owns it (a process pool when configured,
  synchronous serial otherwise).
* **committed** — kept estimates are surfaced through :meth:`poll`, and
  every packet whose member windows have all committed is **evicted**,
  so resident memory is bounded by the active-window horizon rather than
  the trace length.

Windows are laid on the same bit-identical grid the batch planner uses
(:func:`~repro.core.windows.iter_window_grid`), solved by the same
:func:`~repro.runtime.executor.solve_one_window`, and committed in window
order — so "ingest everything, then flush" reproduces the batch
pipeline's estimates exactly. That identity is what lets
:meth:`DomoReconstructor.estimate` run on top of this engine.

Late packets — arrivals whose keeping window already sealed — are
quarantined into the validation machinery (a ``late_arrival`` issue on
the merged :class:`~repro.core.validation.ValidationReport`), never
silently dropped.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

from repro.core.pipeline import DomoConfig, constraint_config_for
from repro.core.preprocessor import (
    choose_window_span,
    generation_order,
    make_window_system,
)
from repro.core.records import ArrivalKey, assemble_arrival_vector
from repro.core.validation import ValidationReport, validate_packets
from repro.core.windows import TimeWindow, iter_window_grid
from repro.constants import INF
from repro.obs.registry import current_registry
from repro.obs.solver_telemetry import WindowTelemetry, summarize_telemetry
from repro.obs.spans import span
from repro.obs.stream_telemetry import StreamTelemetry, merge_stream_stats
from repro.runtime.executor import WindowExecutor, WindowResult, WindowSolveSpec
from repro.sim.packet import PacketId
from repro.sim.trace import ReceivedPacket, TraceBundle


class WindowState(str, Enum):
    """Lifecycle of one streamed window."""

    OPEN = "open"
    SEALED = "sealed"
    SOLVING = "solving"
    COMMITTED = "committed"
    #: sealed with members but no kept ids — released without a solve
    #: (the batch pipeline skips these windows too).
    SKIPPED = "skipped"


@dataclass
class _Slot:
    """Mutable bookkeeping of one window while it is resident."""

    grid_index: int
    window: TimeWindow
    members: list[ReceivedPacket] = field(default_factory=list)
    kept_ids: set[PacketId] = field(default_factory=set)
    state: WindowState = WindowState.OPEN
    sealed_at: float = 0.0
    solve_index: int = -1
    #: constraint-build degradation counters captured at seal time.
    degraded: int = 0


@dataclass
class CommittedWindow:
    """One window's finished output, surfaced by ``poll``/``flush``."""

    #: position in the solve sequence (== batch window index).
    solve_index: int
    #: position on the shared window grid (includes empty/skipped slots).
    grid_index: int
    window: TimeWindow
    #: kept estimates of this window (the committed ones).
    estimates: dict[ArrivalKey, float]
    #: full arrival-time vectors of the kept packets (index = hop).
    arrival_times: dict[PacketId, list[float]]
    telemetry: WindowTelemetry
    #: wall-clock seconds from seal to commit.
    seal_to_commit_s: float

    @property
    def num_estimates(self) -> int:
        return len(self.estimates)


class StreamingReconstructor:
    """Incremental Domo reconstruction over a packet stream.

    Typical use::

        engine = StreamingReconstructor(DomoConfig(), lateness_ms=5_000.0)
        for chunk in packet_chunks:
            engine.ingest(chunk)
            for committed in engine.poll():
                consume(committed.arrival_times)
        for committed in engine.flush():
            consume(committed.arrival_times)

    Args:
        config: the usual :class:`~repro.core.pipeline.DomoConfig`;
            ``window_span_ms``, ``effective_window_ratio``, ``parallel``
            and ``validation`` all apply.
        lateness_ms: watermark allowance — how long after a packet's
            nominal position the engine waits for reordered arrivals
            before sealing its window. ``float('inf')`` defers every
            seal to :meth:`flush`, which makes the run bit-identical to
            the batch pipeline (the mode ``DomoReconstructor.estimate``
            uses).
        executor: optional externally owned solver to submit sealed
            windows to instead of creating a private
            :class:`~repro.runtime.executor.WindowExecutor`. Anything
            with the executor's ``submit``/``drain`` surface works; the
            serve layer passes a per-session view of its shared solver
            pool here so many engines share one process pool fairly.
            An injected executor is *not* closed by :meth:`close` —
            its owner manages its lifetime.
    """

    def __init__(
        self,
        config: DomoConfig | None = None,
        lateness_ms: float = 5_000.0,
        executor: WindowExecutor | None = None,
    ) -> None:
        if lateness_ms < 0.0:
            raise ValueError(f"lateness must be nonnegative, got {lateness_ms}")
        self.config = config or DomoConfig()
        self.lateness_ms = float(lateness_ms)
        self.telemetry = StreamTelemetry()
        self.report = ValidationReport(mode=self.config.validation.mode)

        self._grid: list[TimeWindow] = []
        self._grid_starts: list[float] = []
        self._grid_iter = None
        self._anchor_ms: float | None = None
        self._span_ms: float | None = None
        self._warmup: list[ReceivedPacket] = []
        self._warmup_min_t0 = INF

        self._slots: dict[int, _Slot] = {}  # open windows by grid index
        self._solving: dict[int, _Slot] = {}  # by solve index
        self._completed: dict[int, WindowResult] = {}  # awaiting commit gate
        self._frontier = 0  # next grid index to seal
        self._next_solve_index = 0
        self._next_commit_index = 0

        self._seen: set[PacketId] = set()
        self._refs: dict[PacketId, int] = {}
        self._max_sink_ms = -INF
        self._min_t0_ms = INF
        self._executor: WindowExecutor | None = executor
        self._owns_executor = executor is None
        self._telemetries: list[WindowTelemetry] = []
        self._commits_out: list[CommittedWindow] = []
        self._degraded_constraints = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def watermark_ms(self) -> float:
        """Generation times at or below this are assumed fully arrived."""
        return self._max_sink_ms - self.lateness_ms

    @property
    def window_span_ms(self) -> float | None:
        """The solve-window span, once the grid has been anchored."""
        return self._span_ms

    @property
    def resident_packets(self) -> int:
        """Packets currently held (warmup buffer + open/solving windows)."""
        return len(self._warmup) + len(self._refs)

    @property
    def backlog(self) -> int:
        """Windows sealed (solving or awaiting the commit gate)."""
        return self._next_solve_index - self.telemetry.windows_committed

    def ingest(self, packets, *, report: ValidationReport | None = None) -> None:
        """Feed packets into the stream (any iterable, or a TraceBundle).

        Runs the configured ingest validation on the chunk unless a
        ``report`` is supplied, in which case the packets are taken as
        already validated and the report is merged (the path
        ``DomoReconstructor.estimate`` uses). Duplicate ids across
        chunks and late arrivals are quarantined, never solved twice or
        silently dropped.
        """
        with span("ingest"):
            self._ingest(packets, report=report)
        self.telemetry.publish()
        current_registry().set_gauge("stream.backlog", self.backlog)

    def _ingest(self, packets, *, report: ValidationReport | None = None) -> None:
        if isinstance(packets, TraceBundle):
            packets = packets.received
        packets = list(packets)
        if report is not None:
            self.report.merge(report)
            # The supplied report's total counts the pre-validation
            # originals (quarantined included); fall back to the chunk
            # length when the caller didn't fill it in.
            self.report.total_packets += report.total_packets or len(packets)
        elif self.config.validation.mode != "off":
            # The S(p) budget check needs a trace-start reference. Online
            # that is inherently a best-effort prefix minimum: packets in
            # a chunk are judged against the smallest t0 seen *so far*, so
            # if the globally smallest t0 arrives in a later chunk, earlier
            # chunks were validated against a larger reference than a
            # single-shot run would use. Once the true minimum has been
            # seen the reference matches the batch pipeline exactly.
            self._min_t0_ms = min(
                self._min_t0_ms,
                min(
                    (
                        p.generation_time_ms
                        for p in packets
                        if math.isfinite(p.generation_time_ms)
                    ),
                    default=INF,
                ),
            )
            with span("validate"):
                packets, chunk_report = validate_packets(
                    packets,
                    self.config.validation,
                    first_t0_ms=(
                        self._min_t0_ms if self._min_t0_ms != INF else None
                    ),
                )
            self.report.merge(chunk_report)
            self.report.total_packets += chunk_report.total_packets
        else:
            self.report.total_packets += len(packets)
        for packet in packets:
            pid = packet.packet_id
            if pid in self._seen:
                self.telemetry.duplicates += 1
                self.report.add(
                    pid, "packet_id", "duplicate_ingest", "quarantined"
                )
                self.report.quarantined.append(pid)
                continue
            self._seen.add(pid)
            self.telemetry.ingested += 1
            if packet.sink_arrival_ms > self._max_sink_ms:
                self._max_sink_ms = packet.sink_arrival_ms
                self.telemetry.max_event_ms = self._max_sink_ms
                self.telemetry.watermark_ms = self.watermark_ms
            if self._anchor_ms is None:
                self._warmup.append(packet)
                self._warmup_min_t0 = min(
                    self._warmup_min_t0, packet.generation_time_ms
                )
                self._maybe_anchor()
            else:
                self._place(packet)
            self.telemetry.peak_resident_packets = max(
                self.telemetry.peak_resident_packets, self.resident_packets
            )
        self._advance(block=False)

    def poll(self) -> list[CommittedWindow]:
        """Non-blocking: advance the state machine, return new commits."""
        with span("poll"):
            self._advance(block=False)
            out, self._commits_out = self._commits_out, []
        return out

    def flush(self) -> list[CommittedWindow]:
        """Seal and solve everything outstanding; return the commits.

        After a flush every resident window is committed (or skipped) and
        every packet evicted. The stream stays usable: later ingests fall
        on the already-anchored grid, where anything behind the sealed
        frontier is quarantined as late.
        """
        with span("flush"):
            self._maybe_anchor(force=True)
            if self._slots:
                last = max(self._slots)
                for grid_index in range(self._frontier, last + 1):
                    self._seal_index(grid_index)
                self._frontier = max(self._frontier, last + 1)
            self._advance(block=True)
            out, self._commits_out = self._commits_out, []
        self.telemetry.publish()
        return out

    def quiesce(self) -> None:
        """Block until no window is in flight: drain every submitted
        solve and run the in-order commit gate. Does *not* force seals —
        open windows stay open (unlike :meth:`flush`). Commits produced
        here surface through the next :meth:`poll`. This is the
        precondition for :meth:`export_state`: a snapshot must not race
        the solver pool."""
        self._advance(block=True)

    def export_state(self) -> dict:
        """Strict-JSON document of the full engine state.

        Requires a quiesced engine with :meth:`poll` output absorbed;
        see :func:`repro.stream.state.export_engine_state` for the
        exactness contract. The durability layer snapshots this next to
        its WAL cursor."""
        from repro.stream.state import export_engine_state

        return export_engine_state(self)

    @classmethod
    def from_state(
        cls,
        state: dict,
        config: DomoConfig | None = None,
        lateness_ms: float = 5_000.0,
        executor: WindowExecutor | None = None,
    ) -> "StreamingReconstructor":
        """Rebuild an engine from :meth:`export_state` output.

        ``config`` and ``lateness_ms`` must match the exporting engine
        (the recovery layer enforces this with a config signature);
        the restored engine then behaves bit-identically to one that
        lived through the original ingests."""
        from repro.stream.state import restore_engine_state

        engine = cls(config, lateness_ms, executor)
        restore_engine_state(engine, state)
        return engine

    def close(self) -> None:
        """Release the executor's pool (the executor object is retained
        so :meth:`stats` still reports what actually ran). An executor
        injected at construction belongs to its owner and is left open."""
        if self._executor is not None and self._owns_executor:
            self._executor.close()

    def __enter__(self) -> "StreamingReconstructor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict:
        """Solver + lifecycle telemetry, shaped like the batch stats."""
        stats = summarize_telemetry(self._telemetries)
        executor = self._executor
        stats["execution_mode"] = executor.mode if executor else "serial"
        stats["workers"] = executor.workers if executor else 1
        if executor is not None and executor.fallback_reason is not None:
            stats["parallel_fallback_reason"] = executor.fallback_reason
        if self._span_ms is not None:
            stats["window_span_ms"] = self._span_ms
        stats["quarantined_packets"] = self.report.num_quarantined
        stats["degraded_constraints"] = self._degraded_constraints
        stats["validation"] = self.report.as_dict()
        return merge_stream_stats(stats, self.telemetry)

    # ------------------------------------------------------------------
    # Grid anchoring and membership
    # ------------------------------------------------------------------

    def _maybe_anchor(self, force: bool = False) -> None:
        """Fix the window grid once enough of the stream has been seen.

        The grid is anchored at the minimum generation time observed so
        far — exactly the batch planner's anchor when nothing has sealed
        yet, which is why flush-mode runs are batch-identical. With a
        finite lateness the anchor locks as soon as the watermark passes
        the oldest buffered t0 (the first moment a seal could happen).
        """
        if self._anchor_ms is not None or not self._warmup:
            return
        if not force and self.watermark_ms <= self._warmup_min_t0:
            return
        self._anchor_ms = self._warmup_min_t0
        self._span_ms = (
            self.config.window_span_ms
            if self.config.window_span_ms is not None
            else choose_window_span(
                self._warmup, self.config.target_window_packets
            )
        )
        self._grid_iter = iter_window_grid(
            self._anchor_ms, self._span_ms, self.config.effective_window_ratio
        )
        buffered, self._warmup = self._warmup, []
        self._warmup_min_t0 = INF
        for packet in generation_order(buffered):
            self._place(packet)

    def _extend_grid_through(self, time_ms: float) -> None:
        """Grow the lazy grid until its last window starts after ``time_ms``."""
        while not self._grid or self._grid[-1].start_ms <= time_ms:
            window = next(self._grid_iter)
            self._grid.append(window)
            self._grid_starts.append(window.start_ms)

    def _member_indices(self, t0_ms: float) -> list[int]:
        """Grid indices of every window whose solve region holds ``t0``."""
        self._extend_grid_through(t0_ms)
        # Rightmost window starting at or before t0; walk left while the
        # overlapping predecessors still contain it (<= 1/ratio windows).
        hi = bisect.bisect_right(self._grid_starts, t0_ms) - 1
        members = []
        k = hi
        while k >= 0 and self._grid[k].end_ms > t0_ms:
            if self._grid[k].contains(t0_ms):
                members.append(k)
            k -= 1
        members.reverse()
        return members

    def _keeps(self, grid_index: int, t0_ms: float) -> bool:
        """Batch-identical keep test (window 0 keeps everything below)."""
        window = self._grid[grid_index]
        if grid_index == 0:
            return t0_ms < window.keep_end_ms
        return window.keeps(t0_ms)

    def _place(self, packet: ReceivedPacket) -> None:
        """Assign one packet to its member windows (or quarantine it)."""
        t0 = packet.generation_time_ms
        members = self._member_indices(t0)
        kept_ks = [k for k in members if self._keeps(k, t0)]
        live = [k for k in members if k >= self._frontier]
        if not live or not kept_ks or max(kept_ks) < self._frontier:
            # Every window that could commit this packet's estimate has
            # already sealed (or its t0 predates the grid): quarantine
            # into the validation machinery rather than dropping.
            self.telemetry.late_quarantined += 1
            self.report.add(
                packet.packet_id,
                "sink_arrival_ms",
                "late_arrival",
                "quarantined",
            )
            self.report.quarantined.append(packet.packet_id)
            return
        for k in live:
            slot = self._slots.get(k)
            if slot is None:
                slot = _Slot(grid_index=k, window=self._display_window(k))
                self._slots[k] = slot
            slot.members.append(packet)
            if self._keeps(k, t0):
                slot.kept_ids.add(packet.packet_id)
        self._refs[packet.packet_id] = len(live)

    def _display_window(self, grid_index: int) -> TimeWindow:
        """The window with the batch planner's first-window fixup applied."""
        window = self._grid[grid_index]
        if grid_index == 0:
            return replace(window, keep_start_ms=-INF)
        return window

    # ------------------------------------------------------------------
    # Seal / solve / commit
    # ------------------------------------------------------------------

    def _ensure_executor(self) -> WindowExecutor:
        if self._executor is None:
            config = self.config
            self._executor = WindowExecutor(
                config.solve_spec(),
                parallel=config.parallel,
                max_workers=config.max_workers,
            )
        return self._executor

    def _seal_ready(self) -> None:
        """Seal every window the watermark has fully passed."""
        if self._anchor_ms is None:
            return
        watermark = self.watermark_ms
        if watermark == -INF:
            return
        self._extend_grid_through(watermark)
        while (
            self._frontier < len(self._grid)
            and self._grid[self._frontier].end_ms <= watermark
        ):
            self._seal_index(self._frontier)
            self._frontier += 1

    def _seal_index(self, grid_index: int) -> None:
        """Transition one grid window out of the open state."""
        slot = self._slots.pop(grid_index, None)
        if slot is None:
            return  # empty grid position — nothing ever landed here
        if not slot.kept_ids:
            slot.state = WindowState.SKIPPED
            self.telemetry.windows_skipped += 1
            self._release(slot)
            return
        with span("seal"):
            slot.state = WindowState.SEALED
            slot.sealed_at = time.perf_counter()
            self.telemetry.windows_sealed += 1
            with span("window_build"):
                system = make_window_system(
                    slot.window,
                    slot.members,
                    slot.kept_ids,
                    constraint_config_for(self.config, self.report),
                )
            slot.degraded = system.system.stats.get(
                "sum_rows_distrusted", 0
            ) + system.system.stats.get("sum_upper_degraded", 0)
            slot.solve_index = self._next_solve_index
            self._next_solve_index += 1
            slot.state = WindowState.SOLVING
            self._solving[slot.solve_index] = slot
            self.telemetry.max_backlog = max(
                self.telemetry.max_backlog, self.backlog
            )
            self._ensure_executor().submit(slot.solve_index, system)

    def _advance(self, block: bool = False) -> None:
        """Seal what the watermark allows, drain solves, commit in order."""
        self._seal_ready()
        if self._executor is not None and self._solving:
            with span("solve"):
                for result in self._executor.drain(block=block):
                    self._completed[result.window_index] = result
        if self._next_commit_index in self._completed:
            with span("commit"):
                while self._next_commit_index in self._completed:
                    result = self._completed.pop(self._next_commit_index)
                    self._commit(result)
                    self._next_commit_index += 1

    def _commit(self, result: WindowResult) -> None:
        slot = self._solving.pop(result.window_index)
        slot.state = WindowState.COMMITTED
        latency = time.perf_counter() - slot.sealed_at
        self.telemetry.record_commit(latency)
        self._degraded_constraints += slot.degraded
        self._telemetries.append(result.telemetry)
        omega = self.config.omega_ms
        arrival_times = {
            p.packet_id: assemble_arrival_vector(p, result.estimates, omega)
            for p in slot.members
            if p.packet_id in slot.kept_ids
        }
        self._commits_out.append(
            CommittedWindow(
                solve_index=slot.solve_index,
                grid_index=slot.grid_index,
                window=slot.window,
                estimates=result.estimates,
                arrival_times=arrival_times,
                telemetry=result.telemetry,
                seal_to_commit_s=latency,
            )
        )
        self._release(slot)

    def _release(self, slot: _Slot) -> None:
        """Drop a finished window's packet references; evict orphans."""
        for packet in slot.members:
            pid = packet.packet_id
            remaining = self._refs.get(pid, 0) - 1
            if remaining <= 0:
                self._refs.pop(pid, None)
                self.telemetry.evicted_packets += 1
            else:
                self._refs[pid] = remaining
        slot.members = []
        slot.kept_ids = set()
