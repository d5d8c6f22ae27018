"""HTTP server process for the ``topk-http`` workload.

Usage (started by ``run.py``, not by hand)::

    python3 relbench/server.py --src SRC --edges EDGES.npz --port-file F \
        --stats-file S --api-key KEY

Loads the generated graph from ``EDGES.npz``, builds it through
``HeteroGraph.add_nodes``/``add_edges``, and serves it with
``repro.serve.http.HttpServer`` on an ephemeral port (``workers=1``, one
API-key tenant whose token bucket is far above any load).  The bound port
is published by atomically renaming ``F.tmp`` to ``F``, so the parent
never depends on this process's stdout buffering.

SIGUSR1 enables the program's tracer (``repro.obs.trace.TRACER``),
SIGUSR2 disables it; after each switch the server publishes
``F.trace`` (``{"switches": n}``), so the traced blocks of a run measure
the same warm server as the untraced ones.  The process exits on SIGTERM/SIGINT or when its stdin
reaches EOF (the parent died or closed the pipe).  On exit it writes
``{"max_rss_mb": ...}`` to the stats file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
import threading
from pathlib import Path


def _publish(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--edges", required=True)
    parser.add_argument("--port-file", required=True)
    parser.add_argument("--stats-file", required=True)
    parser.add_argument("--api-key", required=True)
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np

    import repro
    from inputs import GraphInputs, build_graph
    from repro.obs.trace import TRACER
    from repro.serve.admission import AdmissionController, Tenant
    from repro.serve.http import HttpServer

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())

    switches = 0

    def switch_tracing(signum: int, _frame: object) -> None:
        nonlocal switches
        if signum == signal.SIGUSR1:
            TRACER.enable()
        else:
            TRACER.disable()
        switches += 1
        _publish(args.port_file + ".trace", {"switches": switches})

    signal.signal(signal.SIGUSR1, switch_tracing)
    signal.signal(signal.SIGUSR2, switch_tracing)

    def lifeline() -> None:
        sys.stdin.buffer.read()
        stop.set()

    threading.Thread(target=lifeline, daemon=True).start()

    with np.load(args.edges) as data:
        inputs = GraphInputs(
            keys={name: data[name].tolist()
                  for name in ("author", "paper", "conf")},
            writes=data["writes"],
            published_in=data["published_in"],
        )
    graph = build_graph(repro, inputs)
    tenant = Tenant("bench", rate=1e9, burst=1e9)
    server = HttpServer(
        repro.HeteSimEngine(graph),
        admission=AdmissionController(
            {args.api_key: tenant}, queue_capacity=64
        ),
        port=0,
        workers=1,
    )
    server.start()
    try:
        _publish(args.port_file, {"port": server.port, "pid": os.getpid()})
        while not stop.wait(0.5):
            pass
    finally:
        server.stop(drain=False)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        _publish(args.stats_file, {"max_rss_mb": usage.ru_maxrss / 1024.0})
    return 0


if __name__ == "__main__":
    sys.exit(main())
