"""Server process of the ``serve`` workload.

Runs ``repro.server.serve`` on an ephemeral localhost port and speaks a
two-line protocol on stdout: ``{"port": N}`` once the listener is bound,
and after shutdown ``{"peak_rss_mb": ..., "ops": [...], "spans": [...]}``.

With ``--trace 1`` the engine entry points of :data:`spans.SITES` are
wrapped for the life of the process, and every request whose integer
``id`` is odd is traced as one op rooted at ``IdlogService.handle``; even
ids pass through the idle wrappers untraced, which gives the tracing
overhead on the same server and load.

Usage: ``python benchmarks/e2e/server_launcher.py --recent N --trace 0|1``
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE))


def traced_handle(recorder, original):
    """``IdlogService.handle`` opening a traced op for odd request ids."""

    def handle(self, request, context=None):
        rid = request.get("id")
        if isinstance(rid, int) and not isinstance(rid, bool) and rid % 2:
            with recorder.op(rid, root="server.handler"):
                return original(self, request, context)
        return original(self, request, context)

    return handle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--recent", type=int, required=True,
                        help="recent-request ring capacity")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.server import IdlogService, ServerConfig, serve
    from spans import SITES, SpanRecorder

    def ready(server) -> None:
        print(json.dumps({"port": server.tcp_address[1]}), flush=True)

    config = ServerConfig(workers=2, recent_requests=args.recent)
    recorder = SpanRecorder()
    original = IdlogService.handle
    if args.trace:
        IdlogService.handle = traced_handle(recorder, original)
        with recorder.installed(SITES):
            serve(config, host="127.0.0.1", port=0, ready=ready)
        IdlogService.handle = original
    else:
        serve(config, host="127.0.0.1", port=0, ready=ready)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_mb": peak_kb / 1024.0,
                      "ops": [op.as_dict() for op in recorder.ops],
                      "spans": recorder.span_rows()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
