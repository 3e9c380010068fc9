"""One solver pool, many streams: fair multiplexing over a WindowExecutor.

A :class:`~repro.runtime.executor.WindowExecutor` is thread-safe but
deliberately unrouted — any drainer may receive any producer's result
(see its threading-model docstring). The serve layer needs the opposite:
every connected stream runs its own
:class:`~repro.stream.engine.StreamingReconstructor`, each engine indexes
its windows from zero, and each engine's ``drain`` must see exactly its
own windows back. :class:`SharedSolverPool` provides that routing layer:

* each session's submissions get a **globally unique ticket** before
  they reach the executor, so two streams' "window 0" never collide;
* tickets are dispatched **round-robin, one per session per rotation**,
  so a firehose stream cannot starve a trickle stream of solver slots;
* the number of tickets resident in the executor is capped
  (``max(2, 2 * workers)``), keeping the process pool busy while the
  remaining backlog waits in per-session queues where fairness is
  enforced — inside the executor, scheduling is FIFO and unfair;
* the pool is the executor's **only drainer**; whichever session thread
  happens to drain routes every returned result to its owning session's
  mailbox (restoring the engine-local window index), so
  ``SessionExecutor.drain`` has per-stream semantics again.

Solver-side metrics (QP histograms, ``executor.*`` counters, the
``solve`` span) are scoped to the pool's own registry rather than the
draining session's — a thread draining another stream's windows must not
book those solves against its stream. The server merges the pool
registry into the run report at shutdown.

Everything here is plain threads + locks (no asyncio): the server calls
into the pool from ``asyncio.to_thread`` workers, and tests can drive it
directly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import replace

from repro.obs.registry import MetricsRegistry, registry_scope
from repro.runtime.executor import WindowExecutor, WindowResult, WindowSolveSpec

__all__ = ["SessionExecutor", "SharedSolverPool"]

#: back-off while another thread's drain holds our completed results.
_POLL_SLEEP_S = 0.002


class _SessionLane:
    """One session's view of the pool: queued work and routed results."""

    def __init__(self, spec: WindowSolveSpec | None = None) -> None:
        #: built systems waiting for an executor slot: (local_index, ws).
        self.queued: deque = deque()
        #: tickets currently inside the executor.
        self.in_flight: set[int] = set()
        #: results routed back, local window indices restored.
        self.mailbox: list[WindowResult] = []
        #: per-stream solve-spec override (None = the pool's spec); how
        #: one shared pool runs different estimator backends per stream.
        self.spec = spec

    @property
    def outstanding(self) -> int:
        return len(self.queued) + len(self.in_flight)


class SharedSolverPool:
    """Fair, routed fan-in of many streaming engines onto one executor.

    Args:
        spec: solver spec shared by every stream (the serve layer runs
            one reconstruction configuration per server).
        parallel: run the underlying executor's process pool.
        max_workers: worker processes for the pool.
        registry: where solver-side metrics land; a private registry by
            default, merged into the server report at shutdown.
    """

    def __init__(
        self,
        spec: WindowSolveSpec,
        parallel: bool = False,
        max_workers: int | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._executor = WindowExecutor(
            spec, parallel=parallel, max_workers=max_workers
        )
        self._lock = threading.Lock()
        self._lanes: dict[str, _SessionLane] = {}
        #: round-robin order; rotated one step per dispatched ticket.
        self._rotation: deque[str] = deque()
        self._next_ticket = 0
        #: ticket -> (session_id, local_index).
        self._routes: dict[int, tuple[str, int]] = {}
        self._max_resident = max(2, 2 * self._executor.workers)
        self._closed = False

    # -- executor facts (proxied into engine stats) --------------------

    @property
    def mode(self) -> str:
        return self._executor.mode

    @property
    def workers(self) -> int:
        return self._executor.workers

    @property
    def fallback_reason(self) -> str | None:
        return self._executor.fallback_reason

    # -- session lifecycle ---------------------------------------------

    def session(
        self, session_id: str, spec: WindowSolveSpec | None = None
    ) -> "SessionExecutor":
        """Register ``session_id`` and return its executor facade.

        ``spec`` overrides the pool-wide solve spec for this session's
        windows only (per-stream estimator backends); ``None`` keeps
        the pool default.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("solver pool is closed")
            if session_id in self._lanes:
                raise ValueError(f"session {session_id!r} already registered")
            self._lanes[session_id] = _SessionLane(spec)
            self._rotation.append(session_id)
        return SessionExecutor(self, session_id)

    def release(self, session_id: str) -> None:
        """Drop a finished session's lane (must be fully drained)."""
        with self._lock:
            lane = self._lanes.get(session_id)
            if lane is None:
                return
            if lane.outstanding or lane.mailbox:
                raise RuntimeError(
                    f"session {session_id!r} released with "
                    f"{lane.outstanding} outstanding window(s)"
                )
            del self._lanes[session_id]
            self._rotation.remove(session_id)

    # -- submit / dispatch / drain -------------------------------------

    def submit(self, session_id: str, local_index: int, ws) -> None:
        """Queue one built window system for ``session_id``."""
        with self._lock:
            lane = self._lanes.get(session_id)
            if lane is None:
                raise RuntimeError(
                    f"session {session_id!r} is not registered with the "
                    f"pool (never created, or already released)"
                )
            lane.queued.append((local_index, ws))
        self._dispatch()

    def _take_dispatchable(self) -> list[tuple[int, object, object]]:
        """Pick the next round-robin batch of tickets (under the lock)."""
        batch: list[tuple[int, object, object]] = []
        with self._lock:
            resident = len(self._routes)
            # One full rotation with no dispatchable lane ends the scan.
            idle = 0
            while resident + len(batch) < self._max_resident and (
                idle < len(self._rotation)
            ):
                session_id = self._rotation[0]
                self._rotation.rotate(-1)
                lane = self._lanes[session_id]
                if not lane.queued:
                    idle += 1
                    continue
                idle = 0
                local_index, ws = lane.queued.popleft()
                ticket = self._next_ticket
                self._next_ticket += 1
                self._routes[ticket] = (session_id, local_index)
                lane.in_flight.add(ticket)
                batch.append((ticket, ws, lane.spec))
        return batch

    def _dispatch(self) -> None:
        """Move queued work into the executor up to the residency cap.

        Executor calls happen outside the pool lock — in serial mode
        ``submit`` solves inline, and that wall time must not block
        other sessions' bookkeeping.
        """
        while True:
            batch = self._take_dispatchable()
            if not batch:
                return
            with registry_scope(self.registry):
                for ticket, ws, spec in batch:
                    self._executor.submit(ticket, ws, spec)

    def _route(self, results: list[WindowResult]) -> None:
        with self._lock:
            for result in results:
                session_id, local_index = self._routes.pop(
                    result.window_index
                )
                lane = self._lanes[session_id]
                lane.in_flight.discard(result.window_index)
                lane.mailbox.append(
                    replace(result, window_index=local_index)
                )

    def poll(self, session_id: str, block: bool = False) -> list[WindowResult]:
        """Results for ``session_id`` (its local indices restored).

        ``block=False`` repeats dispatch and drain until a round drains
        nothing, so one poll moves every finished solve (in serial mode,
        every queued window) past the residency cap instead of at most
        the cap. ``block=True`` returns only once every window the
        session has submitted so far is back — the per-stream
        equivalent of ``WindowExecutor.drain(block=True)``. Whatever
        this thread drains for *other* sessions is routed to their
        mailboxes.
        """
        collected: list[WindowResult] = []
        while True:
            self._dispatch()
            with registry_scope(self.registry):
                drained = self._executor.drain(block=False)
            if drained:
                self._route(drained)
            with self._lock:
                lane = self._lanes[session_id]
                out, lane.mailbox = lane.mailbox, []
                done = lane.outstanding == 0 if block else not drained
            collected.extend(out)
            if done:
                return collected
            if not block:
                continue
            # Nothing for us yet: either our windows are still solving
            # (wait on the executor) or a concurrent drainer claimed
            # them and will route momentarily (back off briefly).
            with self._lock:
                waiting = bool(self._routes)
            if waiting:
                with registry_scope(self.registry):
                    drained = self._executor.drain(block=True)
                if drained:
                    self._route(drained)
                    continue
                # Tickets are resident but the executor had nothing
                # pending: a concurrent drainer claimed our results and
                # is still routing them. Back off instead of spinning.
            time.sleep(_POLL_SLEEP_S)

    def in_flight(self, session_id: str) -> int:
        with self._lock:
            lane = self._lanes.get(session_id)
            return lane.outstanding + len(lane.mailbox) if lane else 0

    def stats(self) -> dict:
        """Pool-level state for the STATS command."""
        with self._lock:
            return {
                "mode": self.mode,
                "workers": self.workers,
                "fallback_reason": self.fallback_reason,
                "sessions": len(self._lanes),
                "tickets_issued": self._next_ticket,
                "resident": len(self._routes),
                "queued": sum(
                    len(lane.queued) for lane in self._lanes.values()
                ),
            }

    def close(self) -> None:
        """Drain everything still resident, then shut the executor down."""
        while True:
            self._dispatch()
            with self._lock:
                busy = bool(self._routes) or any(
                    lane.queued for lane in self._lanes.values()
                )
                if not busy:
                    self._closed = True
            if not busy:
                break
            with registry_scope(self.registry):
                drained = self._executor.drain(block=True)
            if drained:
                self._route(drained)
            else:
                # A concurrent poller holds our results; don't spin.
                time.sleep(_POLL_SLEEP_S)
        with registry_scope(self.registry):
            self._executor.close()


class SessionExecutor:
    """One session's ``WindowExecutor``-shaped view of the shared pool.

    Injected into :class:`~repro.stream.engine.StreamingReconstructor`
    as its ``executor``: the engine submits engine-local window indices
    and drains exactly its own results back, while the actual solving is
    multiplexed (and kept fair) by the pool. ``close`` is a no-op — the
    pool owns the executor's lifetime; the session releases its lane via
    :meth:`SharedSolverPool.release` once drained.
    """

    def __init__(self, pool: SharedSolverPool, session_id: str) -> None:
        self._pool = pool
        self.session_id = session_id

    @property
    def mode(self) -> str:
        return self._pool.mode

    @property
    def workers(self) -> int:
        return self._pool.workers

    @property
    def fallback_reason(self) -> str | None:
        return self._pool.fallback_reason

    @property
    def in_flight(self) -> int:
        return self._pool.in_flight(self.session_id)

    def submit(self, window_index: int, ws) -> None:
        self._pool.submit(self.session_id, window_index, ws)

    def drain(self, block: bool = False) -> list[WindowResult]:
        return self._pool.poll(self.session_id, block=block)

    def close(self) -> None:  # pragma: no cover - engine never owns us
        pass
