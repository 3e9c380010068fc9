"""Traced ``domo serve``: install the span wrappers, then run the CLI.

Usage::

    python perfbench/serve_launcher.py --spans OUT.json serve [serve args]

Everything after ``--spans OUT.json`` is handed unchanged to the same
``repro.cli.main`` that ``python -m repro.cli`` runs. When the server
has drained (SIGTERM), the spans and each stream's engine telemetry are
written to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import import_program
from perfbench.tracing import Tracer, install


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: serve_launcher.py --spans OUT.json serve ...", file=sys.stderr)
        return 2
    out = Path(argv[1])
    import_program()
    from repro.cli import main as cli_main
    from repro.serve.session import StreamSession

    tracer = Tracer()
    install(tracer)
    sessions: dict[str, StreamSession] = {}
    traced_ingest = StreamSession.ingest

    def ingest(self, packets):
        sessions[self.stream_id] = self
        return traced_ingest(self, packets)

    StreamSession.ingest = ingest
    code = cli_main(argv[2:])
    out.write_text(
        json.dumps(
            {
                "spans": tracer.spans,
                "streams": {
                    stream_id: session.engine.telemetry.as_dict()
                    for stream_id, session in sessions.items()
                },
            },
            default=str,
        )
    )
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
