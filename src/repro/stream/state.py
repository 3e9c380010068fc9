"""Strict-JSON state codec for :class:`StreamingReconstructor`.

The durability layer snapshots a quiesced engine and later rebuilds it
bit-exactly: every estimate the restored engine commits must equal what
the uncrashed engine would have committed. That forces the codec to be
explicit about things a casual serializer would get subtly wrong:

* **Open slots are serialized as membership, not re-derived.** Running
  ``_place()`` again on the resident packets looks equivalent but is
  not: a packet whose *keeping* window sealed before the crash can
  still be a live member of later open windows — re-placing it would
  quarantine it as late and change those windows' constraint systems.
  So each slot records its member/kept packet-table indices verbatim.
* **Non-finite floats ride as tagged strings.** Snapshots are strict
  JSON (``allow_nan=False``, the serve tier's wire rule), but engine
  state legitimately holds ``±inf`` sentinels (watermarks, warmup
  minima) and solver telemetry holds NaN residuals.
* **The window grid is not stored.** It is a pure function of
  ``(anchor, span, ratio)``; the codec stores those plus the generated
  length and re-advances :func:`iter_window_grid` on restore, so the
  grid stays bit-identical to the batch planner's by construction.

The document shape is versioned (:data:`ENGINE_STATE_SCHEMA`); the
snapshot store wraps it with the WAL cursor and session results.
"""

from __future__ import annotations

from dataclasses import asdict

from repro.constants import INF
from repro.core.validation import ValidationIssue, ValidationReport
from repro.core.windows import iter_window_grid
from repro.obs.solver_telemetry import WindowTelemetry
from repro.sim.io import packet_from_json, packet_to_json
from repro.sim.packet import PacketId

__all__ = [
    "ENGINE_STATE_SCHEMA",
    "EngineStateError",
    "export_engine_state",
    "restore_engine_state",
]

ENGINE_STATE_SCHEMA = "domo.engine_state/1"


class EngineStateError(ValueError):
    """An engine state document cannot be exported or restored."""


# -- float / id codecs --------------------------------------------------


def _enc_f(value: float):
    """Float as strict JSON: finite stays a number, else a tagged string."""
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    if value != value:
        return "nan"
    return float(value)


def _dec_f(value) -> float:
    if value == "inf":
        return INF
    if value == "-inf":
        return -INF
    if value == "nan":
        return float("nan")
    return float(value)


def _enc_id(packet_id) -> list:
    """Issue/quarantine ids: usually a PacketId, occasionally a string
    (sanitizer-era records); both shapes must round-trip."""
    if isinstance(packet_id, PacketId):
        return ["pid", packet_id.source, packet_id.seqno]
    return ["str", str(packet_id)]


def _dec_id(data):
    if data[0] == "pid":
        return PacketId(int(data[1]), int(data[2]))
    return data[1]


def _enc_packet(packet) -> dict:
    record = packet_to_json(packet)
    record["t0"] = _enc_f(record["t0"])
    record["t_sink"] = _enc_f(record["t_sink"])
    return record


def _dec_packet(record: dict):
    record = dict(record)
    record["t0"] = _dec_f(record["t0"])
    record["t_sink"] = _dec_f(record["t_sink"])
    return packet_from_json(record)


# -- report / telemetry codecs ------------------------------------------


def _enc_report(report: ValidationReport) -> dict:
    return {
        "mode": report.mode,
        "total_packets": report.total_packets,
        "malformed_records": report.malformed_records,
        "truncated_lines": report.truncated_lines,
        "issues": [
            [_enc_id(i.packet_id), i.field, i.reason, i.action]
            for i in report.issues
        ],
        "quarantined": [_enc_id(pid) for pid in report.quarantined],
        "distrusted_sums": [
            _enc_id(pid) for pid in sorted(report.distrusted_sums)
        ],
    }


def _dec_report(data: dict) -> ValidationReport:
    report = ValidationReport(
        mode=data["mode"],
        total_packets=data["total_packets"],
        malformed_records=data["malformed_records"],
        truncated_lines=data.get("truncated_lines", 0),
    )
    report.issues = [
        ValidationIssue(_dec_id(pid), field, reason, action)
        for pid, field, reason, action in data["issues"]
    ]
    report.quarantined = [_dec_id(pid) for pid in data["quarantined"]]
    report.distrusted_sums = {
        _dec_id(pid) for pid in data["distrusted_sums"]
    }
    return report


def _enc_window_telemetry(record: WindowTelemetry) -> dict:
    data = asdict(record)
    for name in ("primal_residual", "dual_residual", "solve_time_s"):
        data[name] = _enc_f(data[name])
    return data


def _dec_window_telemetry(data: dict) -> WindowTelemetry:
    data = dict(data)
    for name in ("primal_residual", "dual_residual", "solve_time_s"):
        data[name] = _dec_f(data[name])
    return WindowTelemetry(**data)


# -- engine state -------------------------------------------------------


def export_engine_state(engine) -> dict:
    """Capture a quiesced engine as a strict-JSON document.

    The engine must have no in-flight or uncollected work: call
    ``engine.quiesce()`` and absorb ``poll()`` output first. Anything
    still pending would be silently lost by a snapshot, so it is an
    error here rather than a footgun.
    """
    if engine._solving or engine._completed or engine._commits_out:
        raise EngineStateError(
            "engine has in-flight or uncollected windows; call quiesce() "
            "and drain poll() before exporting state"
        )
    # Deterministic packet table: warmup first, then open slots in grid
    # order, first appearance wins. Slots reference packets by index so
    # shared membership (one packet in several overlapping windows)
    # survives the round trip.
    table: list = []
    index_of: dict[PacketId, int] = {}

    def intern(packet) -> int:
        position = index_of.get(packet.packet_id)
        if position is None:
            position = len(table)
            index_of[packet.packet_id] = position
            table.append(packet)
        return position

    warmup = [intern(p) for p in engine._warmup]
    slots = []
    for grid_index in sorted(engine._slots):
        slot = engine._slots[grid_index]
        slots.append(
            {
                "grid_index": grid_index,
                "members": [intern(p) for p in slot.members],
                "kept": sorted(
                    index_of[pid] for pid in slot.kept_ids
                ),
            }
        )
    return {
        "schema": ENGINE_STATE_SCHEMA,
        "anchor_ms": (
            None if engine._anchor_ms is None else _enc_f(engine._anchor_ms)
        ),
        "span_ms": (
            None if engine._span_ms is None else _enc_f(engine._span_ms)
        ),
        "grid_len": len(engine._grid),
        "frontier": engine._frontier,
        "next_solve_index": engine._next_solve_index,
        "next_commit_index": engine._next_commit_index,
        "max_sink_ms": _enc_f(engine._max_sink_ms),
        "min_t0_ms": _enc_f(engine._min_t0_ms),
        "warmup_min_t0": _enc_f(engine._warmup_min_t0),
        "degraded_constraints": engine._degraded_constraints,
        "packets": [_enc_packet(p) for p in table],
        "warmup": warmup,
        "slots": slots,
        "refs": [
            [pid.source, pid.seqno, count]
            for pid, count in engine._refs.items()
        ],
        "seen": [[pid.source, pid.seqno] for pid in sorted(engine._seen)],
        "telemetry": _enc_telemetry(engine.telemetry),
        "report": _enc_report(engine.report),
        "window_telemetries": [
            _enc_window_telemetry(t) for t in engine._telemetries
        ],
    }


def _enc_telemetry(telemetry) -> dict:
    return {
        "ingested": telemetry.ingested,
        "duplicates": telemetry.duplicates,
        "late_quarantined": telemetry.late_quarantined,
        "evicted_packets": telemetry.evicted_packets,
        "peak_resident_packets": telemetry.peak_resident_packets,
        "windows_sealed": telemetry.windows_sealed,
        "windows_skipped": telemetry.windows_skipped,
        "windows_committed": telemetry.windows_committed,
        "max_backlog": telemetry.max_backlog,
        "seal_to_commit_total_s": _enc_f(telemetry.seal_to_commit_total_s),
        "seal_to_commit_max_s": _enc_f(telemetry.seal_to_commit_max_s),
        "max_event_ms": _enc_f(telemetry.max_event_ms),
        "watermark_ms": _enc_f(telemetry.watermark_ms),
        "seal_to_commit_s": [_enc_f(v) for v in telemetry.seal_to_commit_s],
    }


def _dec_telemetry(telemetry, data: dict) -> None:
    telemetry.ingested = data["ingested"]
    telemetry.duplicates = data["duplicates"]
    telemetry.late_quarantined = data["late_quarantined"]
    telemetry.evicted_packets = data["evicted_packets"]
    telemetry.peak_resident_packets = data["peak_resident_packets"]
    telemetry.windows_sealed = data["windows_sealed"]
    telemetry.windows_skipped = data["windows_skipped"]
    telemetry.windows_committed = data["windows_committed"]
    telemetry.max_backlog = data["max_backlog"]
    telemetry.seal_to_commit_total_s = _dec_f(data["seal_to_commit_total_s"])
    telemetry.seal_to_commit_max_s = _dec_f(data["seal_to_commit_max_s"])
    telemetry.max_event_ms = _dec_f(data["max_event_ms"])
    telemetry.watermark_ms = _dec_f(data["watermark_ms"])
    telemetry.seal_to_commit_s = [
        _dec_f(v) for v in data["seal_to_commit_s"]
    ]


def restore_engine_state(engine, state: dict) -> None:
    """Rehydrate a *freshly constructed* engine from an exported state.

    ``engine`` must not have ingested anything; its config/lateness are
    the caller's responsibility (the recovery layer verifies a config
    signature before getting here).
    """
    if state.get("schema") != ENGINE_STATE_SCHEMA:
        raise EngineStateError(
            f"engine state schema {state.get('schema')!r} != "
            f"{ENGINE_STATE_SCHEMA!r}"
        )
    if engine._seen or engine._warmup or engine._grid:
        raise EngineStateError(
            "restore target must be a freshly constructed engine"
        )
    from repro.stream.engine import _Slot  # local: avoid import cycle

    table = [_dec_packet(record) for record in state["packets"]]
    engine._anchor_ms = (
        None if state["anchor_ms"] is None else _dec_f(state["anchor_ms"])
    )
    engine._span_ms = (
        None if state["span_ms"] is None else _dec_f(state["span_ms"])
    )
    if engine._anchor_ms is not None:
        engine._grid_iter = iter_window_grid(
            engine._anchor_ms,
            engine._span_ms,
            engine.config.effective_window_ratio,
        )
        for _ in range(state["grid_len"]):
            window = next(engine._grid_iter)
            engine._grid.append(window)
            engine._grid_starts.append(window.start_ms)
    engine._frontier = state["frontier"]
    engine._next_solve_index = state["next_solve_index"]
    engine._next_commit_index = state["next_commit_index"]
    engine._max_sink_ms = _dec_f(state["max_sink_ms"])
    engine._min_t0_ms = _dec_f(state["min_t0_ms"])
    engine._warmup_min_t0 = _dec_f(state["warmup_min_t0"])
    engine._degraded_constraints = state["degraded_constraints"]
    engine._warmup = [table[i] for i in state["warmup"]]
    for slot_state in state["slots"]:
        members = [table[i] for i in slot_state["members"]]
        slot = _Slot(
            grid_index=slot_state["grid_index"],
            window=engine._display_window(slot_state["grid_index"]),
            members=members,
            kept_ids={table[i].packet_id for i in slot_state["kept"]},
        )
        engine._slots[slot_state["grid_index"]] = slot
    engine._refs = {
        PacketId(source, seqno): count
        for source, seqno, count in state["refs"]
    }
    engine._seen = {
        PacketId(source, seqno) for source, seqno in state["seen"]
    }
    _dec_telemetry(engine.telemetry, state["telemetry"])
    engine.report = _dec_report(state["report"])
    engine._telemetries = [
        _dec_window_telemetry(t) for t in state["window_telemetries"]
    ]
