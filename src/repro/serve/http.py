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
  the full exact→truncate→prune→truncate-final degradation ladder
  (:class:`~repro.runtime.resilience.ResilientRuntime`); batch runs
  exact under the tenant tracker and, on a
  :class:`~repro.hin.errors.ResourceLimitError`, retries once under
  the ladder's unenforced ``truncate-final`` truncation.  Degraded
  answers carry provenance headers (``X-Repro-Strategy``,
  ``X-Repro-Tripped``, ``X-Repro-Degraded``) so clients can tell an
  approximate 200 from an exact one.  A ``/warm`` that breaches the
  tenant's limits is not retried: it gets a 503.
* **Hostile heads close** -- a head the server will not read gets a
  typed answer with ``Connection: close``, then the connection closes,
  so unread bytes never parse as a request (400 malformed request or
  header line, non-decimal or conflicting ``Content-Length``; 413 body
  over 4 MiB; 431 line over 16 KiB or over 100 header lines; 501
  ``Transfer-Encoding``).
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
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.engine import HeteSimEngine
from ..hin.errors import (
    GraphError,
    PathError,
    QueryError,
    ResourceLimitError,
    SchemaError,
)
from ..obs.export import PROMETHEUS_CONTENT_TYPE, prometheus_text, render_json
from ..obs.metrics import REGISTRY
from ..obs.trace import span as trace_span
from ..runtime.limits import (
    ExecutionLimits,
    adopt_context,
    current_context,
    execution_scope,
)
from ..runtime.resilience import TRUNCATE_FINAL_EPS, DegradedResult, ResilientRuntime
from .admission import Admission, AdmissionController, Tenant
from .batch import BatchRequest, Query, QueryServer

__all__ = ["HttpRequest", "HttpResponse", "HttpServer"]

_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_LINE_BYTES = 16 * 1024
_MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
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


def _error_response(exc: Exception) -> HttpResponse:
    """The one map from an exception to its HTTP answer: typed statuses
    for :class:`_HttpError` and the library's typed errors, and a 500
    safety net for anything else, so a request is never dropped."""
    headers: Tuple[Tuple[str, str], ...] = ()
    if isinstance(exc, _HttpError):
        status, error, headers = exc.status, exc.error, exc.headers
    elif isinstance(exc, ResourceLimitError):
        status, error = 503, "resource_limit"
        headers = (("Retry-After", "1"), ("X-Repro-Tripped", exc.limit))
    elif isinstance(
        exc, (QueryError, PathError, GraphError, SchemaError)
    ):
        status, error = 400, type(exc).__name__
    else:
        status, error = 500, type(exc).__name__
    return _json_response(
        status, {"error": error, "detail": str(exc)}, headers=headers
    )


def _shed(admission: Admission) -> _HttpError:
    """The refusal for a request admission control turned away."""
    if admission.reason == "rate":
        retry = max(admission.retry_after, 0.001)
        return _HttpError(
            429,
            "token bucket empty",
            (("Retry-After", f"{retry:.3f}"),),
            "rate_limited",
        )
    if admission.reason == "draining":
        return _HttpError(
            503, "server is draining", (("Retry-After", "1"),), "draining"
        )
    return _HttpError(
        503, "admission queue full", (("Retry-After", "1"),), "overloaded"
    )


async def _head_line(reader: asyncio.StreamReader) -> bytes:
    """One head line; a line over the stream limit is a 431."""
    try:
        return await reader.readline()
    except ValueError:
        raise _HttpError(
            431,
            f"head line over {_MAX_LINE_BYTES} bytes",
            error="headers_too_large",
        ) from None


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


def _provenance_response(
    body: Dict[str, Any],
    strategy: str,
    degraded: bool,
    tripped: Optional[str],
) -> HttpResponse:
    """A scoring answer carrying its degradation provenance.

    The strategy, degraded flag and tripped limit go into ``body`` and
    into headers; a degraded answer counts in
    ``repro_http_degraded_total``.
    """
    if degraded:
        _DEGRADED.labels(strategy=strategy).inc()
    headers: List[Tuple[str, str]] = [
        ("X-Repro-Strategy", strategy),
        ("X-Repro-Degraded", "true" if degraded else "false"),
    ]
    if tripped:
        headers.append(("X-Repro-Tripped", tripped))
    body.update(strategy=strategy, degraded=degraded, tripped=tripped)
    return _json_response(200, body, headers=tuple(headers))


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

        # path -> (method, handler, offloaded).  A GET handler takes no
        # arguments and runs on the loop thread unless offloaded; every
        # POST is admitted first, and its handler takes (tenant, JSON
        # body) and runs in the worker pool.
        self._routes: Dict[
            str, Tuple[str, Callable[..., HttpResponse], bool]
        ] = {
            "/healthz": ("GET", self._handle_healthz, False),
            "/metrics": ("GET", self._handle_metrics, False),
            "/metrics/json": ("GET", self._handle_metrics_json, False),
            "/doctor": ("GET", self._handle_doctor, True),
            "/query": ("POST", self._handle_query, True),
            "/topk": ("POST", self._handle_topk, True),
            "/batch": ("POST", self._handle_batch, True),
            "/warm": ("POST", self._handle_warm, True),
        }
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
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
            close = False
            while not close:
                # Until a whole head is read, an answer closes the
                # connection: bytes the server did not read must never
                # parse as the next request.
                close, endpoint = True, "unknown"
                started = time.perf_counter()
                try:
                    request = await self._read_request(reader)
                    if request is None:
                        break
                    started = time.perf_counter()
                    close = self._draining or (
                        request.header("connection").lower() == "close"
                    )
                    if request.path in self._routes:
                        endpoint = request.path.lstrip("/")
                    response = await self._respond(request, endpoint)
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except Exception as exc:  # answer, never drop
                    response = _error_response(exc)
                _REQUESTS.labels(
                    endpoint=endpoint, status=str(response.status)
                ).inc()
                _LATENCY.labels(endpoint=endpoint).observe(
                    time.perf_counter() - started
                )
                writer.write(response.encode(close))
                await writer.drain()
        except ConnectionError:
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpRequest]:
        """Read one request; None when the client closed between them.

        Raises :class:`_HttpError` for a head or body the server will
        not read.  Lines may end in CRLF or a bare LF.
        """
        line = await _head_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADER_LINES + 1):
            raw = await _head_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            name, colon, value = raw.decode("latin-1").partition(":")
            if not colon:
                raise _HttpError(400, "header line without a colon")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # RFC 9112 §6.3: differing lengths leave the framing
                # unknown, so the message is unrecoverable.
                raise _HttpError(400, "conflicting Content-Length headers")
            headers[name] = value
        else:
            raise _HttpError(
                431,
                f"more than {_MAX_HEADER_LINES} header lines",
                error="headers_too_large",
            )
        if "transfer-encoding" in headers:
            raise _HttpError(
                501,
                "Transfer-Encoding is not supported; send Content-Length",
                error="not_implemented",
            )
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, "Content-Length must be a decimal integer")
        if int(length) > _MAX_BODY_BYTES:
            raise _HttpError(413, "body too large", error="payload_too_large")
        body = await reader.readexactly(int(length))
        return HttpRequest(
            method=method,
            path=target.split("?", 1)[0],
            headers=headers,
            body=body,
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _respond(
        self, request: HttpRequest, endpoint: str
    ) -> HttpResponse:
        """Route one request through the table to its handler."""
        route = self._routes.get(request.path)
        if route is None:
            raise _HttpError(404, request.path, error="not_found")
        method, handler, offloaded = route
        if request.method != method:
            raise _HttpError(
                405,
                f"use {method}",
                (("Allow", method),),
                "method_not_allowed",
            )
        self._inflight += 1
        try:
            if method == "POST":
                return await self._admit_and_run(endpoint, request, handler)
            return await self._offload(handler) if offloaded else handler()
        finally:
            self._inflight -= 1

    async def _offload(
        self, handler: Callable[[], HttpResponse]
    ) -> HttpResponse:
        """Run ``handler`` in the worker pool.

        The task adopts the submitter's ambient ExecutionContext, so
        limit scopes installed around :meth:`start` (and test
        harnesses) propagate into worker threads.
        """
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-http"
            )
        context = current_context()

        def task() -> HttpResponse:
            with adopt_context(context):
                return handler()

        return await asyncio.get_running_loop().run_in_executor(
            self._pool, task
        )

    async def _admit_and_run(
        self,
        endpoint: str,
        request: HttpRequest,
        handler: Callable[[Tenant, Dict[str, Any]], HttpResponse],
    ) -> HttpResponse:
        if self._draining:
            raise _shed(self.admission.shed_draining())
        tenant = self.admission.authenticate(self._api_key(request))
        if tenant is None:
            raise _HttpError(
                401,
                "unknown API key",
                (("WWW-Authenticate", "ApiKey"),),
                "unauthorized",
            )
        admission = self.admission.admit(tenant)
        if not admission.admitted:
            raise _shed(admission)
        try:
            payload = self._parse_json(request)

            def work() -> HttpResponse:
                with trace_span(
                    "http.request",
                    endpoint=endpoint,
                    tenant=tenant.name,
                ):
                    return handler(tenant, payload)

            return await self._offload(work)
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
    # GET endpoints (served on the loop thread, except /doctor)
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
        return self._ladder(
            tenant,
            lambda runtime: runtime.relevance(
                source, target, path, normalized=normalized
            ),
            lambda score: dict(
                source=source, target=target, path=path, score=float(score)
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
            query = Query(
                source=source,
                path=path,
                k=k,
                normalized=normalized,
                measure=measure,
            )
            return self._run_batch(tenant, BatchRequest([query]), True)
        return self._ladder(
            tenant,
            lambda runtime: runtime.top_k(
                source, path, k=k, normalized=normalized
            ),
            lambda ranking: dict(
                source=source,
                path=path,
                k=k,
                ranking=[[key, float(score)] for key, score in ranking],
            ),
        )

    def _ladder(
        self,
        tenant: Tenant,
        ask: Callable[[ResilientRuntime], DegradedResult],
        fields: Callable[[Any], Dict[str, Any]],
    ) -> HttpResponse:
        """Answer one query through the degradation ladder: ``ask``
        runs it under the tenant's limits intersected with the server
        default; ``fields`` renders the answer's value into the body."""
        result = ask(
            self.engine.runtime(
                limits=tenant.resolved_limits(self.default_limits),
                on_limit="degrade",
                faults=self.faults,
            )
        )
        return _provenance_response(
            fields(result.value),
            result.strategy,
            result.degraded,
            result.tripped,
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
        return self._run_batch(tenant, request, False)

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
        """Run a batch; ``single`` also puts its one ranking at the top."""
        limits = tenant.resolved_limits(self.default_limits)
        strategy, tripped = "exact", None
        try:
            result = self.server.run(request, limits=limits)
        except ResourceLimitError as exc:
            # Last-resort floor: rerun once under the ladder's unenforced
            # truncate-final truncation, so overload degrades instead of
            # failing.
            strategy, tripped = "truncate-final", exc.limit
            with execution_scope(truncate_eps=TRUNCATE_FINAL_EPS):
                result = self.server.run(request)
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
            "results": entries,
        }
        if single and entries:
            body["ranking"] = entries[0]["ranking"]
        return _provenance_response(
            body, strategy, strategy != "exact", tripped
        )

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
        limits = tenant.resolved_limits(self.default_limits)
        if limits is None:
            report = self.server.warm(raw_paths, workers=workers)
        else:
            # A breach reaches _error_response as a 503: a warm-up has
            # no cheaper rung to fall back to.
            with execution_scope(tracker=limits.tracker()):
                report = self.server.warm(raw_paths, workers=workers)
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
