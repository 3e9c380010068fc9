"""The reconstruction service layer: ``domo serve``.

Layering (each module only imports downward)::

    supervisor parent process: restart-on-crash, backoff, breaker
    server     the serving core: one engine thread per stream, eviction,
               commands, drain-on-SIGTERM
    core       listener/connection front door (readers, strict-JSON
               replies, signal wiring)
    session    per-stream engine + registry + result log; admission,
               WAL logging, snapshots, crash recovery
    durability WAL segments, atomic snapshots, crashpoints
    pool       fair multiplexing of many engines onto one WindowExecutor
    protocol   newline-delimited records/commands, strict-JSON replies
    client     synchronous helper speaking the protocol (demo, CI,
               tests) with reconnect + resume-from-durable-offset
"""

from repro.serve.client import ServeClient, connect
from repro.serve.core import LineProtocolServer
from repro.serve.durability import DurabilityConfig, WalCorruptionError
from repro.serve.durability.recovery import (
    RecoveryError,
    SnapshotConfigMismatchError,
)
from repro.serve.durability.supervisor import CrashLoopError, Supervisor
from repro.serve.pool import SessionExecutor, SharedSolverPool
from repro.serve.protocol import DEFAULT_STREAM, ProtocolError
from repro.serve.server import ReconstructionServer, ServerHandle, run_in_thread
from repro.serve.session import SessionLimitError, SessionManager, StreamSession

__all__ = [
    "DEFAULT_STREAM",
    "CrashLoopError",
    "DurabilityConfig",
    "LineProtocolServer",
    "ProtocolError",
    "ReconstructionServer",
    "RecoveryError",
    "ServeClient",
    "ServerHandle",
    "SessionExecutor",
    "SessionLimitError",
    "SessionManager",
    "SharedSolverPool",
    "SnapshotConfigMismatchError",
    "StreamSession",
    "Supervisor",
    "WalCorruptionError",
    "connect",
    "run_in_thread",
]
