"""Unit tests for the WAL and snapshot stores.

The contract under test is the recovery layer's bedrock: a torn tail is
a clean stop (the append never completed), everything else — bad CRC,
mid-log tear, index gap, absurd length prefix — is corruption and must
refuse to replay; snapshots appear atomically or not at all.
"""

import json
import os
import struct
import zlib

import pytest

from repro.serve.durability.snapshot import (
    SNAPSHOT_SCHEMA,
    load_latest_snapshot,
    prune_snapshots,
    snapshot_files,
    snapshot_name,
    write_snapshot,
)
from repro.serve.durability.wal import (
    MAX_RECORD_BYTES,
    WalCorruptionError,
    WalWriter,
    iter_wal,
    segment_name,
    wal_segments,
)

_HEADER = struct.Struct(">II")


def _fill(stream_dir, payloads, **kwargs):
    writer = WalWriter(stream_dir, **kwargs)
    for payload in payloads:
        writer.append(payload)
    writer.close()
    return writer


def test_round_trip_and_reopen_continues_numbering(tmp_path):
    payloads = [f"rec-{i}".encode() for i in range(10)]
    _fill(tmp_path / "w", payloads[:6])
    writer = WalWriter(tmp_path / "w")
    assert writer.next_index == 6
    assert writer.records_truncated == 0
    for payload in payloads[6:]:
        writer.append(payload)
    writer.close()
    assert [p for _, p in iter_wal(tmp_path / "w")] == payloads
    assert [i for i, _ in iter_wal(tmp_path / "w", start_index=7)] == [7, 8, 9]


def test_torn_tail_is_clean_stop_then_truncated_on_reopen(tmp_path):
    stream = tmp_path / "w"
    _fill(stream, [b"alpha", b"beta"])
    # Simulate a SIGKILL mid-append: half of a third record.
    record = _HEADER.pack(5, zlib.crc32(b"gamma")) + b"gamma"
    _, segment = wal_segments(stream)[0]
    with open(segment, "ab") as handle:
        handle.write(record[: len(record) // 2])
    # Readers stop cleanly at the tear.
    assert [p for _, p in iter_wal(stream)] == [b"alpha", b"beta"]
    # The writer truncates it and reuses the index.
    writer = WalWriter(stream)
    assert writer.records_truncated == 1
    assert writer.next_index == 2
    writer.append(b"gamma2")
    writer.close()
    assert [p for _, p in iter_wal(stream)] == [b"alpha", b"beta", b"gamma2"]


def test_crc_corruption_raises_for_reader_and_writer(tmp_path):
    stream = tmp_path / "w"
    _fill(stream, [b"alpha", b"beta", b"gamma"])
    _, segment = wal_segments(stream)[0]
    raw = bytearray(segment.read_bytes())
    raw[_HEADER.size] ^= 0xFF  # first payload byte of record 0
    segment.write_bytes(bytes(raw))
    with pytest.raises(WalCorruptionError, match="CRC"):
        list(iter_wal(stream))
    with pytest.raises(WalCorruptionError, match="CRC"):
        WalWriter(stream)


def test_mid_log_tear_is_corruption_not_torn_tail(tmp_path):
    stream = tmp_path / "w"
    # Tiny segments: every record gets its own file.
    _fill(stream, [b"a" * 40, b"b" * 40, b"c" * 40], segment_bytes=8)
    segments = wal_segments(stream)
    assert len(segments) >= 2
    first_path = segments[0][1]
    first_path.write_bytes(first_path.read_bytes()[:-3])
    with pytest.raises(WalCorruptionError, match="not the final"):
        list(iter_wal(stream))
    with pytest.raises(WalCorruptionError, match="not the final"):
        WalWriter(stream)


def test_segment_gap_is_corruption(tmp_path):
    stream = tmp_path / "w"
    _fill(stream, [b"a" * 40, b"b" * 40, b"c" * 40], segment_bytes=8)
    segments = wal_segments(stream)
    assert len(segments) == 3
    segments[1][1].unlink()
    with pytest.raises(WalCorruptionError, match="missing or renamed"):
        list(iter_wal(stream))


def test_absurd_length_prefix_is_corruption(tmp_path):
    stream = tmp_path / "w"
    stream.mkdir(parents=True)
    bogus = _HEADER.pack(MAX_RECORD_BYTES + 1, 0) + b"xx"
    (stream / segment_name(0)).write_bytes(bogus)
    with pytest.raises(WalCorruptionError, match="length prefix"):
        list(iter_wal(stream))


def test_empty_final_segment_is_tolerated(tmp_path):
    stream = tmp_path / "w"
    _fill(stream, [b"alpha", b"beta"])
    # A rotate that died after creating the file, before any append.
    (stream / segment_name(2)).write_bytes(b"")
    assert [p for _, p in iter_wal(stream)] == [b"alpha", b"beta"]
    writer = WalWriter(stream)
    assert writer.next_index == 2
    writer.append(b"gamma")
    writer.close()
    assert [i for i, _ in iter_wal(stream)] == [0, 1, 2]


def test_rotation_and_prune_through(tmp_path):
    stream = tmp_path / "w"
    writer = WalWriter(stream, segment_bytes=32)
    for i in range(12):
        writer.append(f"payload-{i:02d}".encode())
    assert len(wal_segments(stream)) > 2
    # Prune everything before record 8: whole segments below the cursor
    # go, the rest (and the numbering) survive.
    removed = writer.prune_through(8)
    assert removed >= 1
    kept = [i for i, _ in iter_wal(stream)]
    assert kept == list(range(kept[0], 12))
    assert kept[0] <= 8  # never prunes past the cursor
    writer.append(b"after-prune")
    writer.close()
    assert [p for _, p in iter_wal(stream, start_index=12)] == [b"after-prune"]


@pytest.mark.parametrize(
    "policy,expected",
    [("always", 5), ("never", 0)],
)
def test_fsync_policy_observance(tmp_path, monkeypatch, policy, expected):
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    writer = WalWriter(tmp_path / "w", fsync=policy)
    writer.append(b"prime")  # first append also syncs the directory
    calls.clear()
    for i in range(5):
        writer.append(f"r{i}".encode())
    assert len(calls) == expected
    writer.close()
    if policy == "never":
        assert calls == []  # 'never' means never, even at close


def test_fsync_interval_batches_syncs(tmp_path, monkeypatch):
    calls = []
    real_fsync = os.fsync
    monkeypatch.setattr(
        os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd))
    )
    writer = WalWriter(
        tmp_path / "w", fsync="interval", fsync_interval_s=3600.0
    )
    writer.append(b"prime")  # first append also syncs the directory
    calls.clear()
    for i in range(5):
        writer.append(f"r{i}".encode())
    assert calls == []  # interval not yet due
    writer.sync(force=True)
    assert len(calls) == 1
    # Records survive without fsync regardless: append always flushes
    # to the kernel, so only power loss — not process death — can lose
    # them.
    assert len(list(iter_wal(tmp_path / "w"))) == 6
    writer.close()


# -- snapshots ----------------------------------------------------------


def _doc(cursor, **extra):
    document = {
        "schema": SNAPSHOT_SCHEMA,
        "wal_cursor": cursor,
        "payload": f"state-at-{cursor}",
    }
    document.update(extra)
    return document


def test_snapshot_round_trip_newest_wins(tmp_path):
    d = tmp_path / "snaps"
    for cursor in (3, 7, 5):
        write_snapshot(d, _doc(cursor))
    loaded = load_latest_snapshot(d)
    assert loaded["wal_cursor"] == 7
    assert loaded["payload"] == "state-at-7"


def test_invalid_newest_snapshot_falls_back_to_older(tmp_path):
    d = tmp_path / "snaps"
    write_snapshot(d, _doc(3))
    # Newest candidate is unparseable garbage (e.g. torn disk write of
    # a non-atomic copy): skipped, not fatal.
    (d / snapshot_name(9)).write_text("{ definitely not json")
    # A parseable one whose document cursor disagrees with its filename
    # is also skipped (renamed by hand, or wrong file).
    (d / snapshot_name(8)).write_text(
        json.dumps({"schema": SNAPSHOT_SCHEMA, "wal_cursor": 4})
    )
    loaded = load_latest_snapshot(d)
    assert loaded["wal_cursor"] == 3


def test_interrupted_snapshot_write_leaves_previous_intact(
    tmp_path, monkeypatch
):
    d = tmp_path / "snaps"
    write_snapshot(d, _doc(3))

    def exploding_replace(src, dst):
        raise OSError("simulated crash between temp write and rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="simulated crash"):
        write_snapshot(d, _doc(9))
    monkeypatch.undo()
    # The half-written temp file is not a snapshot candidate and the
    # previous generation still loads.
    assert [c for c, _ in snapshot_files(d)] == [3]
    assert load_latest_snapshot(d)["wal_cursor"] == 3
    # And the next successful write goes through cleanly.
    write_snapshot(d, _doc(9))
    assert load_latest_snapshot(d)["wal_cursor"] == 9


def test_prune_snapshots_keeps_newest_generations(tmp_path):
    d = tmp_path / "snaps"
    for cursor in (1, 2, 5, 8):
        write_snapshot(d, _doc(cursor))
    removed = prune_snapshots(d, keep=2)
    assert removed == 2
    assert [c for c, _ in snapshot_files(d)] == [5, 8]


def test_write_snapshot_validates_document(tmp_path):
    with pytest.raises(ValueError):
        write_snapshot(tmp_path / "s", {"schema": "wrong", "wal_cursor": 1})
    with pytest.raises(ValueError):
        write_snapshot(
            tmp_path / "s", {"schema": SNAPSHOT_SCHEMA, "wal_cursor": -2}
        )
    with pytest.raises(ValueError):
        # NaN cannot appear in a snapshot: it would not round-trip.
        write_snapshot(
            tmp_path / "s",
            {"schema": SNAPSHOT_SCHEMA, "wal_cursor": 1,
             "bad": float("nan")},
        )
