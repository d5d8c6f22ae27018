"""Async HTTP/1.1 serving tier with admission control.

A stdlib-only network front end over one
:class:`~repro.core.engine.HeteSimEngine` (no third-party web
framework, no event-loop dependency beyond :mod:`asyncio`):

* **Endpoints** -- ``POST /query`` (one pair relevance), ``POST
  /topk`` (one ranked query), ``POST /batch`` (a
  :class:`~repro.serve.batch.BatchRequest` over the wire), ``POST
  /warm`` (pre-materialise half matrices), ``GET /healthz``, ``GET
  /metrics`` (byte-stable Prometheus text,
  :data:`~repro.obs.export.PROMETHEUS_CONTENT_TYPE`), ``GET
  /metrics/json`` (the JSON snapshot) and ``GET /doctor``.
* **Admission control** -- every POST authenticates via ``X-API-Key``
  (or ``Authorization: Bearer``) against the
  :class:`~repro.serve.admission.AdmissionController`'s tenant table,
  then passes a per-tenant token bucket (429 + ``Retry-After``) and a
  bounded concurrency queue (503 shed).  Admitted work runs under the
  tenant's :class:`~repro.runtime.limits.ExecutionLimits` intersected
  with the server default (strictest wins).
* **Overload degrades, it does not 500** -- single-query endpoints run
  the full exact→truncate→prune→lowrank degradation ladder
  (:class:`~repro.runtime.resilience.ResilientRuntime`); batch runs
  exact under the tenant tracker and, on a
  :class:`~repro.hin.errors.ResourceLimitError`, retries once under
  the unenforced truncation floor.  Degraded answers carry provenance
  headers (``X-Repro-Strategy``, ``X-Repro-Tripped``,
  ``X-Repro-Degraded``) so clients can tell an approximate 200 from an
  exact one.
* **Graceful drain** -- :meth:`HttpServer.stop` (and the CLI's
  SIGTERM handler) stops accepting connections, lets in-flight
  requests finish within a grace period, then closes the loop.  While
  draining, new requests on kept-alive connections get a 503 with
  ``Connection: close``.

The event loop runs in a dedicated background thread; CPU-bound query
work is offloaded to a worker pool whose tasks adopt the submitter's
ambient execution context, so the loop stays responsive for health
checks and metric scrapes even while large GEMMs run.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

from ..core.engine import HeteSimEngine
from ..hin.errors import (
    GraphError,
    PathError,
    QueryError,
    ReproError,
    ResourceLimitError,
    SchemaError,
)
from ..obs.export import (
    PROMETHEUS_CONTENT_TYPE,
    prometheus_text,
    render_json,
)
from ..obs.metrics import REGISTRY
from ..obs.trace import span as trace_span
from ..runtime.limits import (
    ExecutionLimits,
    adopt_context,
    current_context,
    execution_scope,
)
from .admission import Admission, AdmissionController, Tenant
from .batch import BatchRequest, BatchResult, Query, QueryServer

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
]

#: Truncation floor used for the batch endpoint's last-resort retry
#: after the exact attempt trips a tenant limit (mirrors the
#: degradation ladder's ``truncate-final`` rung).
FLOOR_EPS = 1e-4

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_LINE_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests answered, by endpoint and status code.",
)
_LATENCY = REGISTRY.histogram(
    "repro_http_request_seconds",
    "HTTP request latency (parse to response written), by endpoint.",
)
_DEGRADED = REGISTRY.counter(
    "repro_http_degraded_total",
    "HTTP answers produced by a degraded strategy, by strategy.",
)


class _HttpError(Exception):
    """Internal control-flow error carrying a ready HTTP answer."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: Tuple[Tuple[str, str], ...] = (),
        error: str = "bad_request",
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers
        self.error = error


@dataclass(frozen=True)
class HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    def header(self, name: str, default: str = "") -> str:
        """Case-insensitive header lookup."""
        return self.headers.get(name.lower(), default)


@dataclass(frozen=True)
class HttpResponse:
    """One HTTP answer: status, body and extra headers."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()

    def encode(self, close: bool) -> bytes:
        """Serialise to wire bytes (HTTP/1.1, explicit length)."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("ascii") + self.body


def _json_response(
    status: int,
    payload: Dict[str, Any],
    headers: Tuple[Tuple[str, str], ...] = (),
) -> HttpResponse:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return HttpResponse(status=status, body=body, headers=headers)


def _error_payload(error: str, detail: str) -> Dict[str, Any]:
    return {"error": error, "detail": detail}


def _require_str(payload: Dict[str, Any], key: str) -> str:
    value = payload.get(key)
    if not isinstance(value, str) or not value:
        raise _HttpError(
            400, f"body field {key!r} must be a non-empty string"
        )
    return value


def _optional_int(
    payload: Dict[str, Any], key: str, default: int
) -> int:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _HttpError(400, f"body field {key!r} must be an integer")
    return value


def _optional_bool(
    payload: Dict[str, Any], key: str, default: bool
) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise _HttpError(400, f"body field {key!r} must be a boolean")
    return value


def _provenance_headers(
    strategy: str, degraded: bool, tripped: Optional[str]
) -> Tuple[Tuple[str, str], ...]:
    """The degradation provenance carried on every answered query."""
    headers: List[Tuple[str, str]] = [
        ("X-Repro-Strategy", strategy),
        ("X-Repro-Degraded", "true" if degraded else "false"),
    ]
    if tripped:
        headers.append(("X-Repro-Tripped", tripped))
    return tuple(headers)


class HttpServer:
    """The serving tier: asyncio front end over one engine.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.HeteSimEngine` to serve.
    admission:
        Tenant table + rate limits + bounded queue.  ``None`` builds a
        permissive controller (anonymous tenant, unlimited rate,
        64-deep queue) suitable for local use.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`
        after :meth:`start`).
    default_limits:
        Server-wide :class:`~repro.runtime.limits.ExecutionLimits`
        intersected with each tenant's own (strictest wins).
    workers:
        Size of the CPU worker pool query work is offloaded to; also
        the largest ``workers`` a ``/batch`` or ``/warm`` body may ask
        for.
    graph_path / store_dir:
        When given, ``GET /doctor`` runs the full store doctor
        (:func:`~repro.runtime.doctor.run_doctor`); otherwise it
        reports in-memory graph validation only.
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` threaded into
        single-query runtimes (deterministic failure drills).
    drain_grace_s:
        How long :meth:`stop` waits for in-flight requests.
    """

    def __init__(
        self,
        engine: HeteSimEngine,
        admission: Optional[AdmissionController] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_limits: Optional[ExecutionLimits] = None,
        workers: int = 4,
        graph_path: Optional[str] = None,
        store_dir: Optional[str] = None,
        faults: Optional[object] = None,
        drain_grace_s: float = 10.0,
    ) -> None:
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.engine = engine
        self.server = QueryServer(engine)
        self.admission = admission or AdmissionController(
            {}, queue_capacity=64, anonymous=Tenant("anonymous")
        )
        self.host = host
        self._requested_port = port
        self.default_limits = default_limits
        self.workers = workers
        self.graph_path = graph_path
        self.store_dir = store_dir
        self.faults = faults
        self.drain_grace_s = drain_grace_s

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._offload: Optional[
            Callable[[Callable[[], HttpResponse]], Awaitable[HttpResponse]]
        ] = None
        self._writers: "set[asyncio.StreamWriter]" = set()
        self._inflight = 0
        self._draining = False
        self._port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._port is None:
            raise QueryError("server is not running")
        return self._port

    @property
    def url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        """True once :meth:`stop` has begun refusing new work."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Requests currently being processed."""
        return self._inflight

    def start(self) -> "HttpServer":
        """Bind the socket and serve from a background event loop."""
        if self._loop is not None:
            raise QueryError("server already started")
        loop = asyncio.new_event_loop()
        pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-http"
        )

        # Every task submitted to the pool adopts the submitter's
        # ambient ExecutionContext, so limit scopes installed around
        # start()/test harnesses propagate into worker threads.
        def offload(
            handler: Callable[[], HttpResponse],
        ) -> Awaitable[HttpResponse]:
            context = current_context()

            def task() -> HttpResponse:
                with adopt_context(context):
                    return handler()

            return loop.run_in_executor(pool, task)

        self._pool = pool
        self._offload = offload
        self._loop = loop
        self._thread = threading.Thread(
            target=loop.run_forever, name="repro-http-loop", daemon=True
        )
        self._thread.start()

        async def bind() -> asyncio.AbstractServer:
            return await asyncio.start_server(
                self._handle_connection,
                host=self.host,
                port=self._requested_port,
                limit=_MAX_LINE_BYTES,
            )

        self._server = asyncio.run_coroutine_threadsafe(
            bind(), loop
        ).result(timeout=30)
        sockets = self._server.sockets or []
        if not sockets:
            raise QueryError("server failed to bind")
        self._port = int(sockets[0].getsockname()[1])
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop serving; with ``drain`` let in-flight work finish."""
        loop = self._loop
        if loop is None:
            return
        asyncio.run_coroutine_threadsafe(
            self._shutdown(drain), loop
        ).result(timeout=self.drain_grace_s + 30)
        loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        loop.close()
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._loop = None
        self._thread = None
        self._server = None
        self._pool = None
        self._offload = None
        self._port = None

    async def _shutdown(self, drain: bool) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            try:
                await asyncio.wait_for(
                    self._drained(), timeout=self.drain_grace_s
                )
            except asyncio.TimeoutError:
                pass
        for writer in list(self._writers):
            writer.close()

    async def _drained(self) -> None:
        while self._inflight > 0:
            await asyncio.sleep(0.01)

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop(drain=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                close = (
                    request.header("connection").lower() == "close"
                    or self._draining
                )
                self._inflight += 1
                started = time.perf_counter()
                try:
                    endpoint, response = await self._respond(request)
                except _HttpError as exc:
                    endpoint, response = "unknown", _json_response(
                        exc.status,
                        _error_payload(exc.error, exc.message),
                        headers=exc.headers,
                    )
                except Exception as exc:  # safety net: answer, never drop
                    endpoint, response = "unknown", _json_response(
                        500,
                        _error_payload(type(exc).__name__, str(exc)),
                    )
                finally:
                    self._inflight -= 1
                _REQUESTS.labels(
                    endpoint=endpoint, status=str(response.status)
                ).inc()
                _LATENCY.labels(endpoint=endpoint).observe(
                    time.perf_counter() - started
                )
                writer.write(response.encode(close))
                await writer.drain()
                if close:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpRequest]:
        try:
            line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            text = raw.decode("latin-1").strip()
            name, _, value = text.partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY_BYTES:
            return HttpRequest(
                method=method,
                path="\x00payload-too-large",
                headers=headers,
                body=b"",
            )
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return HttpRequest(
            method=method, path=path, headers=headers, body=body
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _respond(
        self, request: HttpRequest
    ) -> Tuple[str, HttpResponse]:
        """Route one request; returns (endpoint label, response)."""
        if request.path == "\x00payload-too-large":
            return "unknown", _json_response(
                413, _error_payload("payload_too_large", "body too large")
            )
        gets: Dict[str, Callable[[], HttpResponse]] = {
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
            "/metrics/json": self._handle_metrics_json,
        }
        posts: Dict[
            str, Callable[[Tenant, Dict[str, Any]], HttpResponse]
        ] = {
            "/query": self._handle_query,
            "/topk": self._handle_topk,
            "/batch": self._handle_batch,
            "/warm": self._handle_warm,
        }
        endpoint = request.path.lstrip("/") or "unknown"
        if request.path in gets or request.path == "/doctor":
            if request.method != "GET":
                return endpoint, _json_response(
                    405,
                    _error_payload("method_not_allowed", "use GET"),
                    headers=(("Allow", "GET"),),
                )
            if request.path == "/doctor":
                return endpoint, await self._offload_call(
                    self._handle_doctor
                )
            return endpoint, gets[request.path]()
        if request.path in posts:
            if request.method != "POST":
                return endpoint, _json_response(
                    405,
                    _error_payload("method_not_allowed", "use POST"),
                    headers=(("Allow", "POST"),),
                )
            return endpoint, await self._admit_and_run(
                endpoint, request, posts[request.path]
            )
        return "unknown", _json_response(
            404, _error_payload("not_found", request.path)
        )

    async def _offload_call(
        self, handler: Callable[[], HttpResponse]
    ) -> HttpResponse:
        offload = self._offload
        if offload is None:
            raise QueryError("server is not running")
        return await offload(handler)

    async def _admit_and_run(
        self,
        endpoint: str,
        request: HttpRequest,
        handler: Callable[[Tenant, Dict[str, Any]], HttpResponse],
    ) -> HttpResponse:
        if self._draining:
            return self._shed_response(self.admission.shed_draining())
        tenant = self.admission.authenticate(self._api_key(request))
        if tenant is None:
            return _json_response(
                401,
                _error_payload("unauthorized", "unknown API key"),
                headers=(("WWW-Authenticate", "ApiKey"),),
            )
        admission = self.admission.admit(tenant)
        if not admission.admitted:
            return self._shed_response(admission)
        try:
            payload = self._parse_json(request)

            def work() -> HttpResponse:
                with trace_span(
                    "http.request",
                    endpoint=endpoint,
                    tenant=tenant.name,
                ):
                    return handler(tenant, payload)

            return await self._offload_call(work)
        except _HttpError as exc:
            return _json_response(
                exc.status,
                _error_payload(exc.error, exc.message),
                headers=exc.headers,
            )
        finally:
            self.admission.release()

    @staticmethod
    def _api_key(request: HttpRequest) -> Optional[str]:
        key = request.header("x-api-key")
        if key:
            return key
        auth = request.header("authorization")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    @staticmethod
    def _shed_response(admission: Admission) -> HttpResponse:
        if admission.reason == "rate":
            retry = max(admission.retry_after, 0.001)
            return _json_response(
                429,
                _error_payload("rate_limited", "token bucket empty"),
                headers=(("Retry-After", f"{retry:.3f}"),),
            )
        if admission.reason == "draining":
            return _json_response(
                503,
                _error_payload("draining", "server is draining"),
                headers=(("Retry-After", "1"),),
            )
        return _json_response(
            503,
            _error_payload("overloaded", "admission queue full"),
            headers=(("Retry-After", "1"),),
        )

    @staticmethod
    def _parse_json(request: HttpRequest) -> Dict[str, Any]:
        if not request.body:
            return {}
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise _HttpError(400, "JSON body must be an object")
        return payload

    # ------------------------------------------------------------------
    # GET endpoints (served on the loop thread; all cheap)
    # ------------------------------------------------------------------
    def _handle_healthz(self) -> HttpResponse:
        return _json_response(
            200,
            {
                "status": "draining" if self._draining else "ok",
                "inflight": self._inflight,
                "queue_depth": self.admission.depth,
            },
        )

    def _handle_metrics(self) -> HttpResponse:
        return HttpResponse(
            status=200,
            body=prometheus_text().encode("utf-8"),
            content_type=PROMETHEUS_CONTENT_TYPE,
        )

    def _handle_metrics_json(self) -> HttpResponse:
        return HttpResponse(
            status=200, body=render_json().encode("utf-8")
        )

    def _handle_doctor(self) -> HttpResponse:
        if self.graph_path is not None:
            from ..runtime.doctor import run_doctor

            report = run_doctor(self.graph_path, self.store_dir)
            return _json_response(
                200 if report.ok else 503,
                {
                    "ok": report.ok,
                    "checks": [
                        {
                            "name": check.name,
                            "ok": check.ok,
                            "detail": check.detail,
                            "error": check.error,
                        }
                        for check in report.checks
                    ],
                },
            )
        from ..hin.validation import graph_report

        report_mem = graph_report(self.engine.graph)
        ok = not report_mem.has_errors
        return _json_response(
            200 if ok else 503,
            {"ok": ok, "summary": report_mem.summary()},
        )

    # ------------------------------------------------------------------
    # POST endpoints (run in the worker pool)
    # ------------------------------------------------------------------
    def _handle_query(
        self, tenant: Tenant, payload: Dict[str, Any]
    ) -> HttpResponse:
        source = _require_str(payload, "source")
        target = _require_str(payload, "target")
        path = _require_str(payload, "path")
        normalized = _optional_bool(payload, "normalized", True)
        measure = payload.get("measure", "hetesim")
        if measure != "hetesim":
            raise _HttpError(
                400,
                "pair queries over HTTP support only the hetesim "
                f"measure, got {measure!r} (use /batch)",
            )
        limits = tenant.resolved_limits(self.default_limits)
        runtime = self.engine.runtime(
            limits=limits, on_limit="degrade", faults=self.faults
        )
        try:
            result = runtime.relevance(
                source, target, path, normalized=normalized
            )
        except ReproError as exc:
            return self._repro_error(exc)
        if result.degraded:
            _DEGRADED.labels(strategy=result.strategy).inc()
        return _json_response(
            200,
            {
                "source": source,
                "target": target,
                "path": path,
                "score": float(result.value),
                "strategy": result.strategy,
                "degraded": result.degraded,
                "tripped": result.tripped,
            },
            headers=_provenance_headers(
                result.strategy, result.degraded, result.tripped
            ),
        )

    def _handle_topk(
        self, tenant: Tenant, payload: Dict[str, Any]
    ) -> HttpResponse:
        source = _require_str(payload, "source")
        path = _require_str(payload, "path")
        k = _optional_int(payload, "k", 10)
        normalized = _optional_bool(payload, "normalized", True)
        measure = payload.get("measure", "hetesim")
        if not isinstance(measure, str):
            raise _HttpError(400, "body field 'measure' must be a string")
        if measure != "hetesim":
            return self._run_batch(
                tenant,
                BatchRequest(
                    [
                        Query(
                            source=source,
                            path=path,
                            k=k,
                            normalized=normalized,
                            measure=measure,
                        )
                    ]
                ),
                single=True,
            )
        limits = tenant.resolved_limits(self.default_limits)
        runtime = self.engine.runtime(
            limits=limits, on_limit="degrade", faults=self.faults
        )
        try:
            result = runtime.top_k(source, path, k=k, normalized=normalized)
        except ReproError as exc:
            return self._repro_error(exc)
        if result.degraded:
            _DEGRADED.labels(strategy=result.strategy).inc()
        ranking = [
            [key, float(score)] for key, score in result.value
        ]
        return _json_response(
            200,
            {
                "source": source,
                "path": path,
                "k": k,
                "ranking": ranking,
                "strategy": result.strategy,
                "degraded": result.degraded,
                "tripped": result.tripped,
            },
            headers=_provenance_headers(
                result.strategy, result.degraded, result.tripped
            ),
        )

    def _handle_batch(
        self, tenant: Tenant, payload: Dict[str, Any]
    ) -> HttpResponse:
        raw_queries = payload.get("queries")
        if not isinstance(raw_queries, list):
            raise _HttpError(400, "body field 'queries' must be a list")
        queries: List[Query] = []
        for index, entry in enumerate(raw_queries):
            if not isinstance(entry, dict):
                raise _HttpError(
                    400, f"queries[{index}] must be an object"
                )
            source = _require_str(entry, "source")
            path = _require_str(entry, "path")
            k_value = entry.get("k", 10)
            if k_value is not None and (
                isinstance(k_value, bool) or not isinstance(k_value, int)
            ):
                raise _HttpError(
                    400, f"queries[{index}].k must be an integer or null"
                )
            queries.append(
                Query(
                    source=source,
                    path=path,
                    k=k_value,
                    normalized=_optional_bool(entry, "normalized", True),
                    measure=str(entry.get("measure", "hetesim")),
                )
            )
        request = BatchRequest(
            queries, workers=self._requested_workers(payload)
        )
        return self._run_batch(tenant, request, single=False)

    def _requested_workers(self, payload: Dict[str, Any]) -> int:
        """The body's ``workers``, bounded by the offload pool's size.

        The value sizes a thread pool per request, so a client may not
        ask for more threads than the operator gave the whole server.
        """
        workers = _optional_int(payload, "workers", 1)
        if not 1 <= workers <= self.workers:
            raise _HttpError(
                400,
                f"body field 'workers' must be in [1, {self.workers}]",
            )
        return workers

    def _run_batch(
        self, tenant: Tenant, request: BatchRequest, single: bool
    ) -> HttpResponse:
        limits = tenant.resolved_limits(self.default_limits)
        strategy, tripped = "exact", None
        try:
            try:
                result = self.server.run(request, limits=limits)
            except ResourceLimitError as exc:
                # Last-resort floor: rerun once under the unenforced
                # truncation floor so overload degrades instead of
                # failing (mirrors the ladder's truncate-final rung).
                strategy, tripped = "truncate-final", exc.limit
                with execution_scope(truncate_eps=FLOOR_EPS):
                    result = self.server.run(request)
                _DEGRADED.labels(strategy=strategy).inc()
        except ReproError as exc:
            return self._repro_error(exc)
        return self._batch_response(result, strategy, tripped, single)

    def _batch_response(
        self,
        result: BatchResult,
        strategy: str,
        tripped: Optional[str],
        single: bool,
    ) -> HttpResponse:
        degraded = strategy != "exact"
        headers = _provenance_headers(strategy, degraded, tripped)
        entries = [
            {
                "source": item.query.source,
                "measure": item.query.measure,
                "ranking": [
                    [key, float(score)] for key, score in item.ranking
                ],
            }
            for item in result.results
        ]
        stats = result.stats
        body: Dict[str, Any] = {
            "stats": {
                "num_queries": stats.num_queries,
                "num_groups": stats.num_groups,
                "workers": stats.workers,
                "halves_materialised": stats.halves_materialised,
                "seconds": stats.seconds,
            },
            "strategy": strategy,
            "degraded": degraded,
            "tripped": tripped,
        }
        if single and entries:
            body["ranking"] = entries[0]["ranking"]
        body["results"] = entries
        return _json_response(200, body, headers=headers)

    def _handle_warm(
        self, tenant: Tenant, payload: Dict[str, Any]
    ) -> HttpResponse:
        raw_paths = payload.get("paths")
        if not isinstance(raw_paths, list) or not all(
            isinstance(item, str) for item in raw_paths
        ):
            raise _HttpError(
                400, "body field 'paths' must be a list of strings"
            )
        workers = self._requested_workers(payload)
        try:
            report = self.server.warm(raw_paths, workers=workers)
        except ReproError as exc:
            return self._repro_error(exc)
        return _json_response(
            200,
            {
                "paths": list(report.paths),
                "persisted": list(report.persisted),
                "skipped": list(report.skipped),
                "workers": report.workers,
                "seconds": report.seconds,
            },
        )

    @staticmethod
    def _repro_error(exc: ReproError) -> HttpResponse:
        """Map typed library errors to HTTP answers (never a bare 500)."""
        if isinstance(exc, ResourceLimitError):
            return _json_response(
                503,
                _error_payload("resource_limit", str(exc)),
                headers=(
                    ("Retry-After", "1"),
                    ("X-Repro-Tripped", exc.limit),
                ),
            )
        if isinstance(
            exc, (QueryError, PathError, GraphError, SchemaError)
        ):
            return _json_response(
                400, _error_payload(type(exc).__name__, str(exc))
            )
        return _json_response(
            500, _error_payload(type(exc).__name__, str(exc))
        )
