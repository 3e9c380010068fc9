"""Tests for the command-line interface."""

import sys

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_simulate_command(capsys):
    code = main(
        ["simulate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "received packets" in out
    assert "delivery ratio" in out


def test_estimate_command(capsys):
    code = main(
        ["estimate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean error" in out


def test_estimate_command_with_workers_and_stats(capsys):
    code = main(
        ["estimate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--workers", "2", "--solver-stats"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mean error" in out
    assert "solver telemetry" in out
    assert "windows solved" in out
    assert "execution mode       : parallel (workers: 2)" in out
    assert "status tally" in out


def test_list_backends_prints_the_registered_set(capsys):
    assert main(["estimate", "--list-backends"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "domo-qp", "message-tracing", "mnt",
    ]


def test_removed_backend_is_refused_at_parse_time(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["estimate", "--backend", "cs"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'cs'" in capsys.readouterr().err


def test_report_command(capsys):
    code = main(
        ["report", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "== trace ==" in out
    assert "slowest nodes" in out


def test_save_and_load_trace_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "trace.json.gz")
    assert main(
        ["simulate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--save-trace", path]
    ) == 0
    first = capsys.readouterr().out
    assert main(["simulate", "--trace", path]) == 0
    second = capsys.readouterr().out
    assert first.splitlines()[0] == second.splitlines()[0]


def test_compare_command(capsys):
    code = main(
        ["compare", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--bound-packets", "20"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Domo" in out
    assert "MNT" in out
    assert "MessageTracing" in out


@pytest.mark.parametrize("command", ["estimate", "compare", "report"])
def test_missing_trace_file_exits_2_with_one_line_error(capsys, command,
                                                        tmp_path):
    code = main([command, "--trace", str(tmp_path / "missing.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("domo: error:")
    assert "not found" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_truncated_gzip_trace_exits_2(capsys, tmp_path):
    path = tmp_path / "trace.json.gz"
    path.write_bytes(b"\x1f\x8b truncated nonsense")
    assert main(["estimate", "--trace", str(path)]) == 2
    assert "domo: error:" in capsys.readouterr().err


def test_non_json_trace_exits_2(capsys, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text("<html>definitely not a trace</html>")
    assert main(["estimate", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert "domo: error:" in err
    assert "JSON" in err


def test_mis_suffixed_gzip_trace_loads_by_magic_bytes(capsys, tmp_path):
    import gzip
    import json

    from repro.sim import NetworkConfig, simulate_network
    from repro.sim.io import trace_to_dict

    trace = simulate_network(NetworkConfig(
        num_nodes=16, placement="grid", duration_ms=20_000.0,
        packet_period_ms=3_000.0, seed=2,
    ))
    path = tmp_path / "trace.json"  # gzip content, no .gz suffix
    path.write_bytes(
        gzip.compress(json.dumps(trace_to_dict(trace)).encode())
    )
    assert main(["simulate", "--trace", str(path)]) == 0
    assert "received packets" in capsys.readouterr().out


def test_dirty_trace_repair_mode_reports_and_succeeds(capsys, tmp_path):
    import json

    from repro.sim import NetworkConfig, simulate_network
    from repro.sim.io import trace_to_dict

    trace = simulate_network(NetworkConfig(
        num_nodes=16, placement="grid", duration_ms=20_000.0,
        packet_period_ms=3_000.0, seed=2,
    ))
    data = trace_to_dict(trace)
    del data["received"][0]["t_sink"]  # truncated record
    data["received"][1]["t_sink"] = -5.0  # impossible timestamps
    path = tmp_path / "dirty.json"
    path.write_text(json.dumps(data))
    assert main(["estimate", "--trace", str(path)]) == 0
    captured = capsys.readouterr()
    assert "validation: 1 quarantined" in captured.err
    assert "mean error" in captured.out
    # strict mode refuses the same file with exit code 2.
    assert main(
        ["estimate", "--trace", str(path), "--validate", "strict"]
    ) == 2


def test_faults_command(capsys):
    code = main(
        ["faults", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--rates", "0.2", "--kinds",
         "delete_received,truncate"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "delete_received" in out
    assert "truncate" in out
    assert "baseline" in out


def test_faults_command_rejects_bad_rates():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["faults", "--rates", "1.5"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["faults", "--rates", "abc"])


def test_stream_command_end_to_end(capsys, tmp_path):
    stream_path = str(tmp_path / "trace.jsonl")
    code = main(
        ["simulate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--save-stream", stream_path]
    )
    assert code == 0
    capsys.readouterr()
    code = main(
        ["stream", stream_path, "--lateness-ms", "2000", "--chunk", "32"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "committed estimates" in out
    assert "windows committed" in out
    committed = int(
        next(line for line in out.splitlines()
             if line.startswith("committed estimates")).split(":")[1]
    )
    assert committed > 0


def test_stream_command_reads_stdin(capsys, tmp_path, monkeypatch):
    stream_path = tmp_path / "trace.jsonl"
    code = main(
        ["simulate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--save-stream", str(stream_path)]
    )
    assert code == 0
    capsys.readouterr()
    import io
    import sys

    monkeypatch.setattr(
        sys, "stdin", io.StringIO(stream_path.read_text(encoding="utf-8"))
    )
    code = main(["stream", "-"])
    assert code == 0
    assert "committed estimates" in capsys.readouterr().out


def test_stream_command_missing_file_exits_2(capsys, tmp_path):
    code = main(["stream", str(tmp_path / "absent.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "domo: error:" in err


def test_stream_follow_rejects_gzip_paths(capsys, tmp_path):
    """Tailing a gzip file is ill-defined — one-line error, not garbage."""
    import gzip

    path = tmp_path / "trace.jsonl.gz"
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        handle.write("")
    code = main(["stream", str(path), "--follow", "--idle-timeout", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "domo: error:" in err
    assert "--follow" in err and "gzip" in err
    # The same gzip file is fine without --follow.
    assert main(["stream", str(path)]) == 0


def test_version_flag_reports_package_version(capsys):
    import re

    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith(f"domo {__version__}")
    # The version banner also advertises the registered backends
    # (argparse reflows the string, so assert content, not layout).
    from repro.backends import DEFAULT_BACKEND, backend_names

    assert f"backends: {', '.join(backend_names())}" in out
    assert f"(default {DEFAULT_BACKEND})" in out
    # The single source of truth: packaging metadata must agree.
    with open("pyproject.toml", encoding="utf-8") as handle:
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', handle.read(), re.MULTILINE
        )
    assert match and match.group(1) == __version__


def test_follow_buffers_partial_lines_until_newline():
    """A record cut mid-write must never be yielded as a truncated line:
    feed the tail one byte at a time and check only whole lines emerge."""
    from repro.cli import _follow_lines

    text = '{"a": 1}\n{"b": 22}\n'

    class ByteDribble:
        def __init__(self, text):
            self.pending = list(text)

        def read(self, _size):
            return self.pending.pop(0) if self.pending else ""

    lines = list(
        _follow_lines(
            ByteDribble(text), poll_interval=1.0, idle_timeout=0.0,
            sleep=lambda _s: None,
        )
    )
    assert lines == ['{"a": 1}\n', '{"b": 22}\n']

    # An unterminated final record is held back until the idle timeout,
    # then yielded whole rather than dropped.
    lines = list(
        _follow_lines(
            ByteDribble('{"a": 1}\n{"tail": 3}'),
            poll_interval=1.0, idle_timeout=2.0, sleep=lambda _s: None,
        )
    )
    assert lines == ['{"a": 1}\n', '{"tail": 3}']


def test_stream_follow_ingests_records_appended_byte_by_byte(
    capsys, tmp_path
):
    """End-to-end tail: a producer appending one byte at a time must not
    corrupt records — the follow run commits exactly what a batch run
    over the finished file does."""
    import shutil
    import threading

    stream_path = tmp_path / "trace.jsonl"
    code = main(
        ["simulate", "--nodes", "16", "--duration", "20", "--period", "3",
         "--seed", "2", "--save-stream", str(stream_path)]
    )
    assert code == 0
    capsys.readouterr()

    def committed_of(out):
        return next(
            line for line in out.splitlines()
            if line.startswith("committed estimates")
        )

    code = main(["stream", str(stream_path)])
    assert code == 0
    expected = committed_of(capsys.readouterr().out)

    grown_path = tmp_path / "grown.jsonl"
    grown_path.write_text("", encoding="utf-8")
    data = stream_path.read_bytes()

    def producer():
        with open(grown_path, "ab", buffering=0) as handle:
            for offset in range(0, len(data)):
                handle.write(data[offset:offset + 1])

    writer = threading.Thread(target=producer)
    writer.start()
    try:
        code = main(
            ["stream", str(grown_path), "--follow",
             "--poll-interval", "0.01", "--idle-timeout", "1"]
        )
    finally:
        writer.join()
    assert code == 0
    assert committed_of(capsys.readouterr().out) == expected


#: engine flags set away from their defaults, so forwarding is visible.
ENGINE_FLAGS = [
    "--max-sessions", "3", "--workers", "2", "--lateness-ms", "1500.5",
    "--chunk", "7", "--queue-capacity", "9", "--validate", "drop",
    "--fsync", "always", "--snapshot-interval", "5",
    "--adoption-grace-ms", "12.5", "--backend", "mnt",
]
#: what a supervised child inherits from the parent.
FORWARDED = (
    "max_sessions", "workers", "lateness_ms", "chunk", "queue_capacity",
    "validate", "fsync", "snapshot_interval", "adoption_grace_ms",
    "backend",
)


def _reparse_serve(argv):
    """A child command line back through the parser it was written for."""
    assert argv[:4] == [sys.executable, "-m", "repro.cli", "serve"]
    return build_parser().parse_args(argv[3:])


@pytest.mark.parametrize(
    "flags", [ENGINE_FLAGS, []], ids=["set", "defaults"]
)
def test_supervised_child_argv_forwards_every_serve_flag(tmp_path, flags):
    from repro.cli import _serve_child_argv

    args = build_parser().parse_args(
        ["serve", "--supervise", "--socket", str(tmp_path / "s.sock"),
         "--wal-dir", str(tmp_path / "wal"), "--metrics-out", "r.json",
         *flags]
    )
    child = _reparse_serve(_serve_child_argv(args, port=4321))
    for name in FORWARDED + ("socket", "host", "wal_dir", "metrics_out"):
        assert getattr(child, name) == getattr(args, name), name
    assert child.port == 4321
    assert not child.supervise
