"""Unit tests for the restart supervisor (tiny python -c children)."""

import sys

import pytest

from repro.serve.durability.supervisor import CrashLoopError, Supervisor


def _child(code):
    return [sys.executable, "-c", code]


def test_clean_exit_passes_through():
    supervisor = Supervisor(_child("raise SystemExit(0)"))
    assert supervisor.run() == 0
    assert supervisor.restarts_total == 0


def test_crash_loop_trips_breaker_with_stderr_tail():
    supervisor = Supervisor(
        _child(
            "import sys; print('boom: the disk is haunted', "
            "file=sys.stderr); raise SystemExit(3)"
        ),
        max_restarts=2,
        backoff_s=0.01,
    )
    with pytest.raises(CrashLoopError) as excinfo:
        supervisor.run()
    message = str(excinfo.value)
    assert "3 times in a row" in message
    assert "status 3" in message
    assert "the disk is haunted" in message  # stderr tail is carried
    assert supervisor.restarts_total == 2


def test_crash_loop_closes_every_child_stderr_pipe():
    """Each incarnation's stderr pipe is closed once its output is read,
    so a crash-looping server holds no pipe per restart."""
    children = []

    class Recording(Supervisor):
        def _tee_stderr(self, child):
            children.append(child)
            return super()._tee_stderr(child)

    supervisor = Recording(
        _child("import sys; print('down', file=sys.stderr); sys.exit(5)"),
        max_restarts=3,
        backoff_s=0.01,
    )
    with pytest.raises(CrashLoopError):
        supervisor.run()
    assert len(children) == 4
    assert all(child.stderr.closed for child in children)


def test_transient_crash_recovers_and_returns_clean(tmp_path):
    """A child that dies once and then exits cleanly: one restart, no
    breaker, final code 0."""
    flag = tmp_path / "crashed-once"
    code = (
        "import os, signal, sys\n"
        f"flag = {str(flag)!r}\n"
        "if not os.path.exists(flag):\n"
        "    open(flag, 'w').close()\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "raise SystemExit(0)\n"
    )
    supervisor = Supervisor(_child(code), backoff_s=0.01)
    assert supervisor.run() == 0
    assert supervisor.restarts_total == 1


def test_incarnation_env_increments_per_spawn(tmp_path):
    """Each spawn sees its own DOMO_CRASH_INCARNATION, so seeded crash
    points aimed at incarnation 0 do not re-fire in the restarted
    child."""
    log = tmp_path / "incarnations"
    code = (
        "import os, signal, sys\n"
        f"log = {str(log)!r}\n"
        "inc = os.environ['DOMO_CRASH_INCARNATION']\n"
        "with open(log, 'a') as h:\n"
        "    h.write(inc + '\\n')\n"
        "if inc == '0':\n"
        "    os.kill(os.getpid(), signal.SIGKILL)\n"
        "raise SystemExit(0)\n"
    )
    supervisor = Supervisor(_child(code), backoff_s=0.01)
    assert supervisor.run() == 0
    assert log.read_text().split() == ["0", "1"]


def test_validates_arguments():
    with pytest.raises(ValueError):
        Supervisor([])
    with pytest.raises(ValueError):
        Supervisor(_child("pass"), max_restarts=-1)
