"""Span tracing from outside the program: wrap public entry points.

A :class:`Tracer` keeps spans in memory (name, start, end, parent,
thread, thread CPU time, attributes) until the run ends.
:func:`install` wraps every layer entry point the workloads reach
(:data:`LAYER_ENTRY_POINTS`) at the module attribute the caller looks
up, so nothing under ``src/`` changes and an uninstalled run executes
the program untouched.

A layer's self time is its span minus the time covered by its child
spans; children nest inside their parent on one thread, so the covered
time is the sum of the children's durations. Wrapped coroutines are
entry points that do not suspend except under backpressure, so their
spans nest like calls on the event loop's thread. On that thread each
callback the loop runs is a span, named by what it runs
(:data:`SERVE_CALLBACKS`): a step of a connection's reader task, a
socket read, and so on. A long-lived task is thus timed step by step,
never across the time it is suspended. The loop's own work between
callbacks is in no span.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time

#: span fields, in the order each span record stores them.
FIELDS = ("id", "parent", "name", "thread", "start", "end", "cpu", "attrs")


class Tracer:
    """In-memory span recorder; thread-safe, one span stack per thread."""

    def __init__(self) -> None:
        # list.append and next() on a count are atomic under the GIL.
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _open(self, name: str) -> tuple[list, list[int]]:
        """Start a span; returns its record and this thread's span stack
        (a coroutine resumes on the thread it started on)."""
        try:
            stack = self._local.stack
        except AttributeError:
            stack = self._local.stack = []
        record = [
            next(self._ids),
            stack[-1] if stack else None,
            name,
            threading.get_ident(),
            0.0,
            0.0,
            0.0,
            None,
        ]
        stack.append(record[0])
        # Clocks last on open and first on close: the tracer's own
        # bookkeeping falls outside the span, into its parent's self time.
        record[6] = time.thread_time()
        record[4] = time.perf_counter()
        return record, stack

    def _close(self, record: list, stack: list[int], attrs: dict | None) -> None:
        record[5] = time.perf_counter()
        record[6] = time.thread_time() - record[6]
        record[7] = attrs
        # By id, not by position: a coroutine that suspended inside its
        # span closes after spans opened later on the same thread.
        stack.remove(record[0])
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        record, stack = self._open(name)
        try:
            yield
        finally:
            self._close(record, stack, None)

    def wrap(self, name, fn, attrs=None):
        """``fn`` recording a span per call.

        ``name`` is the span name or, for a plain function, a function
        of the call's positional arguments returning it.
        ``attrs(result, args, kwargs)`` may return a dict of counts to
        attach (or None).
        """
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                record, stack = self._open(name)
                counts = None
                try:
                    result = await fn(*args, **kwargs)
                    if attrs is not None:
                        counts = attrs(result, args, kwargs)
                    return result
                finally:
                    self._close(record, stack, counts)

            return traced_async

        named = callable(name)

        def traced(*args, **kwargs):
            record, stack = self._open(name(*args) if named else name)
            counts = None
            try:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    counts = attrs(result, args, kwargs)
                return result
            finally:
                self._close(record, stack, counts)

        # A wrapped class is only ever called to construct instances.
        return traced if inspect.isclass(fn) else functools.wraps(fn)(traced)


def as_dicts(records: list[list]) -> list[dict]:
    """Span records (lists in :data:`FIELDS` order) as dicts."""
    return [dict(zip(FIELDS, record)) for record in records]


# ----------------------------------------------------------------------
# The layer map: which entry point each layer is timed at
# ----------------------------------------------------------------------


def _system_counts(system) -> dict:
    stats = system.stats
    return {
        "rows": len(system.builder.rows),
        "fifo_pairs": stats.get("fifo_resolved", 0)
        + stats.get("fifo_unresolved", 0),
        "unknowns": system.num_unknowns,
    }


def _window_counts(result, args, kwargs) -> dict:
    return _system_counts(result.system)


def _constraint_counts(result, args, kwargs) -> dict:
    return _system_counts(result)


def _validate_counts(result, args, kwargs) -> dict:
    return {"quarantined": result[1].num_quarantined}


def _solve_counts(result, args, kwargs) -> dict:
    telemetry = result.telemetry
    return {
        "iterations": telemetry.iterations,
        "primal_residual": telemetry.primal_residual,
        "relax_rung": telemetry.relax_rung,
        "midpoints": int(telemetry.solver == "fallback"),
    }


def _ingest_counts(result, args, kwargs) -> dict:
    return {"records": len(args[1])}


def _encode_counts(result, args, kwargs) -> dict:
    return {"bytes": len(result), "results": int("windows" in args[0])}


def _append_counts(result, args, kwargs) -> dict:
    return {"bytes": len(args[1])}


def _sync_counts(result, args, kwargs) -> dict:
    force = args[1] if len(args) > 1 else kwargs.get("force", True)
    return {"fsync": int(bool(force) and args[0]._file is not None)}


def _extract_counts(result, args, kwargs) -> dict:
    return {"vertices": result.size}


#: what an event-loop callback runs (a task's coroutine, or a transport
#: or loop method) -> the serve-path layer it belongs to. A callback not
#: listed is an :data:`UNNAMED` span.
SERVE_CALLBACKS = {
    "LineProtocolServer._handle_connection": "serve.connection",
    "ReconstructionServer._pump": "serve.pump",
    "_SelectorSocketTransport._read_ready": "serve.read",
    # An ingest's result crossing from its worker thread to the loop
    # (the worker side is ``_WorkItem.run`` in LAYER_ENTRY_POINTS).
    "BaseSelectorEventLoop._read_from_self": "serve.handoff",
    "_chain_future.<locals>._set_state": "serve.handoff",
    "_chain_future.<locals>._call_check_cancel": "serve.handoff",
}

#: the span of a callback not in :data:`SERVE_CALLBACKS`: it names no
#: layer, so coverage leaves its own time out.
UNNAMED = "serve.callback"


def _callback_span(handle) -> str:
    """Span name of one event-loop callback, from what it runs."""
    callback = handle._callback
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, asyncio.Task):
        runs = owner.get_coro().__qualname__
    else:
        runs = getattr(callback, "__qualname__", "")
    return SERVE_CALLBACKS.get(runs, UNNAMED)


#: layer -> [(span name, "module:attribute" call sites, attrs function)];
#: the span name may be a function of the call's arguments (see
#: :meth:`Tracer.wrap`). A dotted attribute ("Class.method") patches the
#: method on the class.
LAYER_ENTRY_POINTS = {
    "io": [("io.load", ["repro.sim.io:load_trace"], None)],
    "validate": [
        (
            "validate",
            [
                "repro.core.validation:validate_packets",
                "repro.core.pipeline:validate_packets",
                "repro.stream.engine:validate_packets",
            ],
            _validate_counts,
        )
    ],
    "window_build": [
        (
            "window_build",
            ["repro.stream.engine:make_window_system"],
            _window_counts,
        ),
        (
            "window_build",
            ["repro.core.pipeline:build_constraints"],
            _constraint_counts,
        ),
    ],
    "solve": [
        (
            "solve",
            ["repro.runtime.executor:solve_one_window"],
            _solve_counts,
        )
    ],
    "index": [("index", ["repro.core.pipeline:TraceIndex"], None)],
    "assemble": [
        (
            "assemble",
            [
                "repro.core.pipeline:assemble_arrival_vector",
                "repro.stream.engine:assemble_arrival_vector",
            ],
            None,
        )
    ],
    "serve": [
        (_callback_span, ["asyncio.events:Handle._run"], None),
        ("serve.select", ["selectors:DefaultSelector.select"], None),
        (
            "serve.handoff",
            ["concurrent.futures.thread:_WorkItem.run"],
            None,
        ),
        ("serve.parse", ["repro.serve.core:parse_line"], None),
        (
            "serve.enqueue",
            ["repro.serve.server:ReconstructionServer.handle_record"],
            None,
        ),
        ("serve.reply", ["repro.serve.core:LineProtocolServer._send"], None),
        (
            "serve.ingest",
            ["repro.serve.session:StreamSession.ingest"],
            _ingest_counts,
        ),
        (
            "serve.results",
            ["repro.serve.server:ReconstructionServer._cmd_results"],
            None,
        ),
        ("serve.encode", ["repro.serve.core:encode_response"], _encode_counts),
    ],
    "durability": [
        (
            "durability.wal_append",
            ["repro.serve.durability.wal:WalWriter.append"],
            _append_counts,
        ),
        (
            "durability.sync",
            ["repro.serve.durability.wal:WalWriter.sync"],
            _sync_counts,
        ),
        (
            "durability.snapshot",
            ["repro.serve.session:StreamSession.snapshot"],
            None,
        ),
    ],
    "bounds": [
        ("bounds.graph", ["repro.core.bounds:BoundComputer.__init__"], None),
        ("bounds.solve", ["repro.core.bounds:BoundComputer.bounds_for_all"], None),
        (
            "bounds.extract",
            ["repro.graphcut.extraction:SubgraphExtractor.extract"],
            _extract_counts,
        ),
        ("bounds.lp", ["repro.core.bounds:solve_lp"], None),
    ],
}


def install(tracer: Tracer):
    """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`; returns an
    ``uninstall`` callable restoring the original attributes."""
    targets = [
        (name, site, attrs)
        for entries in LAYER_ENTRY_POINTS.values()
        for name, sites, attrs in entries
        for site in sites
    ]
    # Import every module before patching any: a module imported after
    # a patch would bind the wrapper and be wrapped twice.
    for _, site, _ in targets:
        importlib.import_module(site.split(":")[0])
    undo = []
    for name, site, attrs in targets:
        module_name, attribute = site.split(":")
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if path else getattr(owner, leaf)
        setattr(owner, leaf, tracer.wrap(name, original, attrs))
        undo.append((owner, leaf, original))

    def uninstall() -> None:
        for owner, leaf, original in reversed(undo):
            setattr(owner, leaf, original)

    return uninstall


# ----------------------------------------------------------------------
# Summaries
# ----------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return {
        span["id"]: (span["end"] - span["start"]) - child_time.get(span["id"], 0.0)
        for span in spans
    }


def self_cpu(spans: list[dict]) -> dict[int, float]:
    """span id -> thread CPU seconds minus its direct children's."""
    child_cpu: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_cpu[span["parent"]] = child_cpu.get(span["parent"], 0.0) + span["cpu"]
    return {span["id"]: span["cpu"] - child_cpu.get(span["id"], 0.0) for span in spans}


def named_cpu_s(spans: list[dict]) -> float:
    """Thread CPU seconds spent inside spans that name a layer: all root
    spans' CPU less the self CPU of every :data:`UNNAMED` span."""
    own = self_cpu(spans)
    return sum(s["cpu"] for s in spans if s["parent"] is None) - sum(
        own[s["id"]] for s in spans if s["name"] == UNNAMED
    )


def coverage(spans: list[dict], root_id: int) -> float:
    """Share of a root span's wall time covered by its direct children."""
    root = next(span for span in spans if span["id"] == root_id)
    covered = sum(
        span["end"] - span["start"] for span in spans if span["parent"] == root_id
    )
    duration = root["end"] - root["start"]
    return covered / duration if duration > 0 else 0.0
