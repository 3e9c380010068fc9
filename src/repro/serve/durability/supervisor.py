"""Supervised restart for the reconstruction server.

``domo serve --supervise`` runs the actual server in a *child* process
and keeps this parent as a tiny supervisor: restart the child when it
crashes (nonzero exit / signal death), with exponential backoff, and
give up with a named :class:`CrashLoopError` when the child keeps dying
faster than ``healthy_after_s`` — the circuit breaker that turns "the
WAL is poisoned and recovery raises on every boot" into one clear error
carrying the child's stderr tail instead of an infinite kill/restart
loop.

State machine::

            spawn
              │
              ▼
    ┌──── running ────────────────────────────┐
    │         │                               │
    │   exit 0 / stop requested         crash (uptime >= healthy)
    │         │                               │ restarts := 0
    │         ▼                               ▼
    │      stopped                    crash (uptime < healthy)
    │                                         │ restarts += 1
    │                                backoff = base * 2^restarts
    │                 restarts <= max ────────┤
    └───── sleep(backoff), spawn ◀────────────┘
                                              │ restarts > max
                                              ▼
                                       CrashLoopError

Address stability across restarts is the *caller's* job: the CLI
resolves ``--port 0`` to a concrete free port before the first spawn so
every incarnation rebinds the same address, and a unix socket path is
naturally stable (the child unlinks and rebinds it).

The supervisor also increments ``DOMO_CRASH_INCARNATION`` for every
spawn, so seeded crash points (:mod:`repro.serve.durability
.crashpoints`) fire in the incarnation they were aimed at and do not
re-kill every restarted child — a seeded test kill must not look like a
crash loop.
"""

from __future__ import annotations

import collections
import os
import signal
import subprocess
import sys
import threading
import time

__all__ = ["CrashLoopError", "Supervisor"]


class CrashLoopError(RuntimeError):
    """The supervised server died too many times in a row, too fast.

    The message names the exit status and carries the child's last
    stderr lines — for a poisoned WAL that is the
    ``WalCorruptionError`` recovery raised on every boot.
    """


class Supervisor:
    """Run a child command until it exits cleanly; restart on crash.

    Args:
        argv: full child command line (e.g. ``[sys.executable, "-m",
            "repro.cli", "serve", ...]`` without ``--supervise``).
        max_restarts: fast failures tolerated in a row before the
            circuit breaker trips.
        backoff_s: base restart delay; doubles per consecutive fast
            failure, capped at ``backoff_cap_s``.
        healthy_after_s: a child surviving this long counts as healthy
            and resets the breaker.
        stderr_tail_lines: how many child stderr lines to retain for
            the :class:`CrashLoopError` message (stderr is passed
            through to this process's stderr either way).
    """

    def __init__(
        self,
        argv: list[str],
        *,
        max_restarts: int = 5,
        backoff_s: float = 0.2,
        backoff_cap_s: float = 10.0,
        healthy_after_s: float = 5.0,
        stderr_tail_lines: int = 50,
    ) -> None:
        if not argv:
            raise ValueError("supervisor needs a child command")
        if max_restarts < 0 or backoff_s < 0 or healthy_after_s < 0:
            raise ValueError(
                "max_restarts, backoff_s and healthy_after_s must be >= 0"
            )
        self.argv = list(argv)
        self.max_restarts = max_restarts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self.healthy_after_s = healthy_after_s
        self.restarts_total = 0
        self._tail: collections.deque[str] = collections.deque(
            maxlen=stderr_tail_lines
        )
        self._child: subprocess.Popen | None = None
        self._stop_requested = False

    # -- signal plumbing -------------------------------------------------

    def _forward(self, signum, frame) -> None:
        """Pass SIGTERM/SIGINT to the child; remember we are stopping
        so its exit is treated as shutdown, not a crash."""
        self.stop(signum)

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Programmatic stop (thread-safe): signal the child and treat
        its exit as shutdown, not a crash."""
        self._stop_requested = True
        child = self._child
        if child is not None and child.poll() is None:
            try:
                child.send_signal(sig)
            except (ProcessLookupError, OSError):
                pass

    def _tee_stderr(self, child: subprocess.Popen) -> threading.Thread:
        def pump() -> None:
            assert child.stderr is not None
            # The reader closes the pipe at EOF, so a join that times out
            # never closes it under a live reader, and no incarnation's
            # pipe outlives its output.
            with child.stderr:
                for raw in child.stderr:
                    try:
                        sys.stderr.buffer.write(raw)
                        sys.stderr.buffer.flush()
                    except (OSError, ValueError):
                        pass
                    self._tail.append(
                        raw.decode("utf-8", errors="replace").rstrip("\n")
                    )

        thread = threading.Thread(
            target=pump, name="domo-supervise-stderr", daemon=True
        )
        thread.start()
        return thread

    # -- main loop -------------------------------------------------------

    def run(self) -> int:
        """Supervise until clean exit; returns the final exit code.

        Raises :class:`CrashLoopError` when the breaker trips.
        """
        incarnation = 0
        fast_failures = 0
        installed = {}
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                installed[sig] = signal.signal(sig, self._forward)
            except ValueError:
                pass  # not the main thread (tests drive run() directly)
        try:
            while True:
                env = dict(os.environ)
                env["DOMO_CRASH_INCARNATION"] = str(incarnation)
                started = time.monotonic()
                child = subprocess.Popen(
                    self.argv, stderr=subprocess.PIPE, env=env
                )
                self._child = child
                tee = self._tee_stderr(child)
                # A stop signal may have arrived between the previous
                # poll and the spawn; deliver it now rather than never.
                if self._stop_requested:
                    child.terminate()
                returncode = child.wait()
                tee.join(timeout=5.0)
                uptime = time.monotonic() - started
                incarnation += 1
                if returncode == 0 or self._stop_requested:
                    return returncode
                if uptime >= self.healthy_after_s:
                    fast_failures = 0
                fast_failures += 1
                if fast_failures > self.max_restarts:
                    tail = "\n".join(self._tail)
                    raise CrashLoopError(
                        f"server crashed {fast_failures} times in a row "
                        f"(last exit status {returncode}, uptime "
                        f"{uptime:.2f}s < healthy_after {self.healthy_after_s}s); "
                        f"giving up instead of crash-looping.\n"
                        f"--- child stderr tail ---\n{tail}"
                    )
                self.restarts_total += 1
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_s * (2 ** (fast_failures - 1)),
                )
                print(
                    f"domo serve: child died (status {returncode}, uptime "
                    f"{uptime:.2f}s); restart {fast_failures}/"
                    f"{self.max_restarts} in {delay:.2f}s",
                    file=sys.stderr,
                    flush=True,
                )
                time.sleep(delay)
        finally:
            self._child = None
            for sig, previous in installed.items():
                signal.signal(sig, previous)
