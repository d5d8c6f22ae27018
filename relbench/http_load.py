"""The ``topk-http`` workload: a server process and a closed-loop client.

The server (``server.py``) runs in its own process.  This process is the
load generator: :data:`CONNECTIONS` keep-alive connections in a closed
loop, each sending its next request only after the previous reply
arrived (an app tier with a two-connection pool).  Latency is timed from
just before the request is written to the last byte of the reply.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from common import (
    GATE_SAMPLES,
    Outcome,
    graph_counts,
    latency_summary,
    ms,
    perturbed,
    put_counters,
    put_shares,
    sample_indices,
    span_ms,
    tail_ms,
    traced_set_up,
)
from gate import Reference, check_ranking, check_score
from inputs import PATHS, TOP_K, HttpRequestSpec, make_http_requests
from spans import Recorder

CONNECTIONS = 2
API_KEY = "relbench-key"
#: Distinct requests in the seeded mix (cycled).
REQUESTS = 2048
#: Server starts per run (each ~1 s of interpreter start-up and import);
#: ``setup_s`` is their median.
SERVER_STARTS = 3
WARMUP_S = 1.0
#: Traced requests replayed in process to split the handler time.
REPLAY_CAP = 3000
#: Untraced/traced block pairs in the traced half of a traced run.
TRACE_BLOCKS = 4
SOCKET_TIMEOUT_S = 30.0
START_TIMEOUT_S = 60.0
HERE = Path(__file__).resolve().parent


class BenchError(RuntimeError):
    """The benchmark itself failed (not the program's answers)."""


def encode_request(endpoint: str, payload: Dict[str, object]) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    head = (
        f"POST {endpoint} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"X-API-Key: {API_KEY}\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


@dataclass
class Reply:
    status: int
    headers: Dict[str, str]
    body: bytes


class _Conn:
    """One keep-alive connection with an incremental response parser."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S
        )
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.index = -1
        self.started = 0.0

    def send(self, index: int, payload: bytes) -> None:
        self.index = index
        self.started = time.perf_counter()
        self.sock.sendall(payload)

    def feed(self) -> Optional[Reply]:
        """Read what is available; a Reply once one is complete."""
        chunk = self.sock.recv(65536)
        if not chunk:
            raise BenchError("server closed a keep-alive connection")
        self.buffer += chunk
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        lines = self.buffer[:head_end].decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body, self.buffer = self.buffer[head_end + 4:end], self.buffer[end:]
        return Reply(int(lines[0].split()[1]), headers, body)

    def close(self) -> None:
        self.sock.close()


def request_once(port: int, endpoint: str, payload: Dict[str, object]) -> Reply:
    conn = _Conn(port)
    try:
        conn.send(0, encode_request(endpoint, payload))
        while True:
            reply = conn.feed()
            if reply is not None:
                return reply
    finally:
        conn.close()


@dataclass
class LoopResult:
    """Per-request outcomes of one closed-loop phase, in completion order."""

    indices: List[int] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    degraded: int = 0
    errors: List[str] = field(default_factory=list)
    bodies: Dict[int, bytes] = field(default_factory=dict)
    window: tuple = (0.0, 0.0)


def closed_loop(
    port: int,
    wire: Sequence[bytes],
    seconds: float,
    keep: frozenset = frozenset(),
    first: int = 0,
) -> LoopResult:
    """Drive ``wire`` (cycled from ``first``) for ``seconds``; keep the
    first reply body of every request index in ``keep``."""
    result = LoopResult()
    conns = [_Conn(port) for _ in range(CONNECTIONS)]
    selector = selectors.DefaultSelector()
    next_index = first
    try:
        started = time.perf_counter()
        deadline = started + seconds
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
            conn.send(next_index % len(wire), wire[next_index % len(wire)])
            next_index += 1
        in_flight = len(conns)
        while in_flight:
            events = selector.select(timeout=SOCKET_TIMEOUT_S)
            if not events:
                raise BenchError("no reply within the socket timeout")
            for key, _ in events:
                conn = key.data
                reply = conn.feed()
                if reply is None:
                    continue
                done = time.perf_counter()
                result.indices.append(conn.index)
                result.starts.append(conn.started)
                result.latencies.append(done - conn.started)
                if reply.status != 200:
                    result.failed += 1
                    result.errors.append(
                        f"request {conn.index}: HTTP {reply.status} "
                        f"{reply.body[:200]!r}"
                    )
                elif reply.headers.get("x-repro-degraded") != "false":
                    result.degraded += 1
                    result.failed += 1
                    result.errors.append(f"request {conn.index}: degraded")
                if conn.index in keep and conn.index not in result.bodies:
                    result.bodies[conn.index] = reply.body
                if done < deadline:
                    i = next_index % len(wire)
                    conn.send(i, wire[i])
                    next_index += 1
                else:
                    in_flight -= 1
        result.window = (started, time.perf_counter())
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return result


class ServerProcess:
    """``server.py`` in a child process; always terminated and reaped."""

    def __init__(self, src: Path, edges: Path, workdir: Path, tag: str) -> None:
        self.port_file = workdir / f"port-{tag}.json"
        self.stats_file = workdir / f"stats-{tag}.json"
        self.log_path = workdir / f"server-{tag}.log"
        self._switches = 0
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--src", str(src),
             "--edges", str(edges), "--port-file", str(self.port_file),
             "--stats-file", str(self.stats_file), "--api-key", API_KEY],
            stdin=subprocess.PIPE, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._wait_for(self.port_file)["port"]
        except BaseException:
            self.stop()
            raise

    def _wait_for(self, path: Path) -> dict:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while not path.exists():
            if self.proc.poll() is not None:
                raise BenchError(
                    f"server exited with {self.proc.returncode}: "
                    + self.log_path.read_text(errors="replace")[-2000:]
                )
            if time.perf_counter() > deadline:
                raise BenchError("server did not publish its port in time")
            time.sleep(0.005)
        return json.loads(path.read_text())

    def warm(self) -> None:
        reply = request_once(self.port, "/warm", {"paths": list(PATHS)})
        if reply.status != 200:
            raise BenchError(f"/warm answered {reply.status}: {reply.body!r}")

    def metrics(self) -> dict:
        conn = _Conn(self.port)
        try:
            conn.sock.sendall(
                b"GET /metrics/json HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
            )
            while True:
                reply = conn.feed()
                if reply is not None:
                    return json.loads(reply.body)
        finally:
            conn.close()

    def set_tracing(self, enabled: bool) -> None:
        """Switch the program's tracer in the server; wait until done."""
        state = Path(str(self.port_file) + ".trace")
        self._switches += 1
        self.proc.send_signal(signal.SIGUSR1 if enabled else signal.SIGUSR2)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while True:
            try:
                if json.loads(state.read_text())["switches"] == self._switches:
                    return
            except (OSError, ValueError):
                pass
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise BenchError("server did not switch tracing")
            time.sleep(0.002)

    def stop(self) -> Optional[float]:
        """Terminate and reap; the server's peak RSS in MB when known."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self._log.close()
        if self.stats_file.exists():
            return json.loads(self.stats_file.read_text())["max_rss_mb"]
        return None


def write_edges(path: Path, inputs) -> None:
    np.savez(
        path,
        author=np.array(inputs.keys["author"]),
        paper=np.array(inputs.keys["paper"]),
        conf=np.array(inputs.keys["conf"]),
        writes=inputs.writes,
        published_in=inputs.published_in,
    )


def wire_requests(requests: Sequence[HttpRequestSpec]) -> List[bytes]:
    return [encode_request(r.endpoint, r.body()) for r in requests]


_COUNTERS = {
    "memo_hits": "repro_halves_memo_hits_total",
    "materialisations": "repro_halves_materialisations_total",
    "cache_hits": "repro_cache_hits_total",
    "cache_misses": "repro_cache_misses_total",
}


def _server_counters(server: ServerProcess) -> Dict[str, float]:
    snapshot = server.metrics()
    return {
        key: float(sum(s.get("value", 0.0)
                       for s in snapshot.get(name, {"series": []})["series"]))
        for key, name in _COUNTERS.items()
    }


def topk_http(run) -> Outcome:
    out = Outcome()
    requests = make_http_requests(run.seed, run.inputs, REQUESTS)
    wire = wire_requests(requests)
    keep = sample_indices(run.seed, len(requests), GATE_SAMPLES, 3)
    edges = run.workdir / "edges.npz"
    write_edges(edges, run.inputs)
    setups: List[float] = []
    servers: List[ServerProcess] = []
    rss_mb = None
    try:
        for n in range(SERVER_STARTS):
            started = time.perf_counter()
            server = ServerProcess(run.src, edges, run.workdir, str(n))
            servers.append(server)
            server.warm()
            setups.append(time.perf_counter() - started)
            if n < SERVER_STARTS - 1:
                server.stop()
        closed_loop(server.port, wire, WARMUP_S)
        phase_s = run.seconds / 2 if run.trace else run.seconds
        before = _server_counters(server)
        main = closed_loop(server.port, wire, phase_s, keep)
        after = _server_counters(server)
        traced = plain = None
        if run.trace:
            plain, traced = _alternate(server, wire, phase_s)
        rss_mb = server.stop()
    finally:
        for each in servers:
            each.stop()
    if rss_mb is None:
        raise BenchError("server did not report its peak RSS")

    out.attempted = len(main.latencies)
    out.failed = main.failed
    out.errors = main.errors[:20]
    wall = main.window[1] - main.window[0]
    out.put("setup_s", statistics.median(setups), "s")
    out.put("p50_ms", ms(main.latencies), "ms")
    out.put("tail_ms", tail_ms(main.latencies), "ms")
    out.put("qps", len(main.latencies) / wall, "1/s")
    out.put("rss_mb", rss_mb, "MB")
    out.info["latency"] = latency_summary(main.latencies)
    out.info["setup_samples_s"] = setups

    if traced is not None:
        put_counters(out, before, after, len(main.latencies))
        for extra in (plain, traced):
            out.attempted += len(extra.latencies)
            out.failed += extra.failed
            out.errors += extra.errors[:20]
        _replay(run, out, requests, plain, traced)

    bodies = dict(main.bodies)
    if run.perturb and bodies:
        first = min(bodies)
        payload = json.loads(bodies[first])
        if "ranking" in payload:
            payload["ranking"] = perturbed(payload["ranking"])
        else:
            payload["score"] += 1e-6
        bodies[first] = json.dumps(payload).encode()
    reference = Reference(run.inputs.keys, run.inputs.writes,
                          run.inputs.published_in)
    for index, body in sorted(bodies.items()):
        spec = requests[index]
        payload = json.loads(body)
        if spec.target:
            problem = check_score(
                reference.pair(spec.path, spec.source, spec.target),
                payload["score"],
            )
        else:
            problem = check_ranking(
                reference.scores("hetesim", spec.path, spec.source),
                reference.target_keys(spec.path),
                [tuple(entry) for entry in payload["ranking"]], TOP_K,
            )
        if problem:
            out.mismatches.append(
                f"{spec.endpoint} {spec.path} {spec.source}: {problem}"
            )
    out.info["answers_checked"] = len(bodies)
    return out


def _alternate(server: ServerProcess, wire, seconds: float):
    """Alternate untraced and traced blocks of the closed loop (the
    server's tracer switched between them); returns both, merged."""
    plain, traced = LoopResult(), LoopResult()
    first = 0
    for block in range(2 * TRACE_BLOCKS):
        enabled = block % 2 == 1
        server.set_tracing(enabled)
        part = closed_loop(server.port, wire, seconds / (2 * TRACE_BLOCKS),
                           first=first)
        first += len(part.latencies)
        into = traced if enabled else plain
        for name in ("indices", "starts", "latencies", "errors"):
            getattr(into, name).extend(getattr(part, name))
        into.failed += part.failed
        into.degraded += part.degraded
    server.set_tracing(False)
    return plain, traced


def _replay(run, out: Outcome, requests, plain: LoopResult,
            traced: LoopResult) -> None:
    """Replay the traced requests in process through the calls the
    server's handler makes, to split each client latency into transport,
    admission, the degradation ladder, the engine and selection."""
    from repro.core.search import select_top_k
    from repro.obs.trace import TRACER
    from repro.serve.admission import AdmissionController, Tenant

    graph, engine, setup = traced_set_up(run.repro, run.inputs, PATHS, TRACER)
    tenant = Tenant("bench", rate=1e9, burst=1e9)
    admission = AdmissionController({API_KEY: tenant}, queue_capacity=64)
    rec = Recorder(TRACER)
    out.put("hin.build_s", span_ms(setup, "build_graph") / 1e3, "s")
    out.put("hin.adjacency_ms", span_ms(setup, "HeteroGraph.adjacency"), "ms")
    out.put("core.materialise_ms", span_ms(setup, "HeteSimEngine.halves"), "ms")
    out.info["graph"] = graph_counts(graph)
    for start, latency in zip(traced.starts, traced.latencies):
        rec.add("http.request", "serve.http", start, start + latency)
    degraded = traced.degraded
    count = min(len(traced.indices), REPLAY_CAP)
    TRACER.enable()
    try:
        for index in traced.indices[:count]:
            spec = requests[index]
            with rec.op("replay"):
                with rec.span("AdmissionController", "serve.admission"):
                    who = admission.authenticate(API_KEY)
                    if not admission.admit(who).admitted:
                        raise BenchError("in-process admission refused")
                    admission.release()
                with rec.span("ResilientRuntime", "runtime"):
                    runtime = engine.runtime(
                        limits=who.resolved_limits(None), on_limit="degrade"
                    )
                    if spec.target:
                        result = runtime.relevance(spec.source, spec.target,
                                                   spec.path)
                    else:
                        result = runtime.top_k(spec.source, spec.path, k=TOP_K)
                degraded += int(result.degraded)
                with rec.span("HeteSimEngine", "core.engine"):
                    if spec.target:
                        engine.relevance(spec.source, spec.target, spec.path)
                    else:
                        engine.top_k(spec.source, spec.path, k=TOP_K)
                if not spec.target:
                    with rec.span("HeteSimEngine.relevance_vector",
                                  "core.engine"):
                        scores = engine.relevance_vector(spec.source, spec.path)
                    with rec.span("select_top_k", "core.search"):
                        keys = graph.node_keys(engine.path(spec.path)
                                               .target_type.name)
                        select_top_k(scores, keys, TOP_K)
    finally:
        TRACER.disable()

    per_op = [op for op in rec.per_op().values() if "AdmissionController" in op]
    cols = {
        name: np.array([op.get(name, 0.0) for op in per_op])
        for name in ("AdmissionController", "ResilientRuntime",
                     "HeteSimEngine", "select_top_k")
    }
    latency = np.array(traced.latencies[:count])
    transport = latency - cols["AdmissionController"] - cols["ResilientRuntime"]
    ladder = cols["ResilientRuntime"] - cols["HeteSimEngine"]
    selects = [v for v, op in zip(cols["select_top_k"], per_op)
               if "select_top_k" in op]
    out.put("http.transport_ms", ms(transport), "ms")
    out.put("admission.ms", ms(cols["AdmissionController"]), "ms")
    out.put("runtime.ladder_ms", ms(ladder), "ms")
    out.put("runtime.degraded", degraded, "count")
    out.put("engine.query_ms", ms(cols["HeteSimEngine"]), "ms")
    out.put("search.select_ms", ms(selects), "ms")
    out.put("obs.trace_overhead",
            ms(traced.latencies) / ms(plain.latencies), "ratio")
    out.put("trace.unattributed_share", rec.unattributed_share(), "ratio")
    put_shares(out, float(latency.mean()), {
        "serve.http": float(transport.mean()),
        "serve.admission": float(cols["AdmissionController"].mean()),
        "runtime": float(ladder.mean()),
        "core.engine": float((cols["HeteSimEngine"]
                              - cols["select_top_k"]).mean()),
        "core.search": float(cols["select_top_k"].mean()),
    })
    out.trace = rec.dump()

