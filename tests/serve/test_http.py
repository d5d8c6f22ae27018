"""Socket-level integration tests for the HTTP serving tier.

Every test drives a real ``HttpServer`` bound to an ephemeral
127.0.0.1 port through ``http.client`` -- request parsing, routing,
admission, degradation provenance and drain are all exercised over the
wire, not by calling handlers directly.  Heads ``http.client`` will not
send (malformed, oversized, pipelined) go over a raw socket.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.core.engine import HeteSimEngine
from repro.datasets.toy import fig4_network
from repro.obs.export import PROMETHEUS_CONTENT_TYPE
from repro.runtime.limits import ExecutionLimits, execution_scope
from repro.serve import (
    AdmissionController,
    HttpServer,
    Tenant,
)


def request(
    server, method, path, body=None, headers=None, key=None
):
    """One request over a fresh connection; returns (status, headers,
    parsed-JSON-or-bytes)."""
    connection = HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        send_headers = dict(headers or {})
        if key is not None:
            send_headers["X-API-Key"] = key
        raw = (
            json.dumps(body).encode() if isinstance(body, dict) else body
        )
        connection.request(method, path, body=raw, headers=send_headers)
        response = connection.getresponse()
        payload = response.read()
        header_map = {
            name.lower(): value for name, value in response.getheaders()
        }
        if header_map.get("content-type", "").startswith(
            "application/json"
        ):
            payload = json.loads(payload)
        return response.status, header_map, payload
    finally:
        connection.close()


def raw_exchange(server, data, timeout=5.0):
    """Send raw bytes on one connection and read until the server ends
    it; returns ([(status, headers), ...], ending), where ``ending`` is
    ``"close"``, ``"reset"`` or ``"open"`` (still open at ``timeout``)."""
    received, ending = b"", "open"
    with socket.create_connection(
        ("127.0.0.1", server.port), timeout=timeout
    ) as sock:
        sock.sendall(data)
        try:
            while chunk := sock.recv(65536):
                received += chunk
            ending = "close"
        except ConnectionResetError:
            ending = "reset"
        except socket.timeout:
            pass
    responses = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {
            name.strip().lower(): value.strip()
            for name, _, value in (line.partition(":") for line in lines[1:])
        }
        responses.append((int(lines[0].split()[1]), headers))
        received = rest[int(headers.get("content-length", 0)):]
    return responses, ending


def header_lines(count):
    return b"".join(b"X-Filler-%d: v\r\n" % index for index in range(count))


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture()
def engine():
    return HeteSimEngine(fig4_network())


@pytest.fixture()
def server(engine):
    with HttpServer(engine) as running:
        yield running


class TestRouting:
    def test_healthz(self, server):
        status, _, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_metrics_content_type_is_prometheus(self, server):
        status, headers, body = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == PROMETHEUS_CONTENT_TYPE
        assert b"# TYPE" in body

    def test_metrics_json(self, server):
        request(
            server,
            "POST",
            "/query",
            {"source": "Tom", "target": "KDD", "path": "APC"},
        )
        status, headers, body = request(server, "GET", "/metrics/json")
        assert status == 200
        assert "repro_http_requests_total" in body

    def test_request_metrics_recorded(self, server):
        request(
            server,
            "POST",
            "/query",
            {"source": "Tom", "target": "KDD", "path": "APC"},
        )
        _, _, text = request(server, "GET", "/metrics")
        assert (
            b'repro_http_requests_total{endpoint="query",status="200"}'
            in text
        )

    def test_doctor_in_memory(self, server):
        status, _, body = request(server, "GET", "/doctor")
        assert status == 200
        assert body["ok"] is True

    def test_unknown_route_404(self, server):
        status, _, body = request(server, "GET", "/nope")
        assert status == 404
        assert body["error"] == "not_found"

    def test_wrong_method_405(self, server):
        status, headers, _ = request(server, "GET", "/query")
        assert status == 405
        assert headers["allow"] == "POST"
        status, headers, _ = request(server, "POST", "/healthz", {})
        assert status == 405
        assert headers["allow"] == "GET"

    def test_malformed_json_400(self, server):
        status, _, body = request(server, "POST", "/query", b"oops")
        assert status == 400
        assert "invalid JSON" in body["detail"]

    def test_missing_field_400(self, server):
        status, _, body = request(
            server, "POST", "/query", {"source": "Tom"}
        )
        assert status == 400

    def test_unknown_source_is_400_not_500(self, server):
        status, _, body = request(
            server,
            "POST",
            "/query",
            {"source": "Nobody", "target": "KDD", "path": "APC"},
        )
        assert status == 400
        assert body["error"] == "QueryError"

    def test_keep_alive_serves_sequential_requests(self, server):
        connection = HTTPConnection(
            "127.0.0.1", server.port, timeout=10
        )
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


class TestHostileHeads:
    """A head the server will not read gets one typed answer with
    ``Connection: close``, then the server closes the connection, so
    the bytes after that head are never parsed as a request."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz HTTP/1.1\r\nHost x\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /query HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", 413),
            (b"GET /healthz HTTP/1.1\r\n" + header_lines(101) + b"\r\n", 431),
            (
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                501,
            ),
        ],
        ids=[
            "request-line",
            "header-without-colon",
            "content-length-abc",
            "content-length-negative",
            "body-too-large",
            "101-header-lines",
            "transfer-encoding",
        ],
    )
    def test_answered_with_close_then_closed(self, server, head, status):
        responses, ending = raw_exchange(server, head)
        assert [code for code, _ in responses] == [status]
        assert responses[0][1]["connection"] == "close"
        assert ending == "close"

    def test_overlong_header_line_is_431_or_reset(self, server):
        head = b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 17 * 1024
        responses, ending = raw_exchange(server, head + b"\r\n\r\n")
        statuses = [code for code, _ in responses]
        assert statuses == [431] or (statuses == [] and ending == "reset")
        assert ending != "open"

    @pytest.mark.parametrize(
        "framing",
        [b"Content-Length: 9999999", b"Transfer-Encoding: chunked"],
        ids=["content-length", "transfer-encoding"],
    )
    def test_unread_body_never_parses_as_a_request(self, server, framing):
        head = b"POST /query HTTP/1.1\r\nHost: x\r\n" + framing
        responses, ending = raw_exchange(
            server, head + b"\r\n\r\n" + HEALTHZ
        )
        assert len(responses) == 1, responses
        assert responses[0][0] in (413, 501)
        assert ending == "close"

    QUERY = json.dumps({"source": "Tom", "target": "KDD", "path": "APC"})
    POST = b"POST /query HTTP/1.1\r\nConnection: close\r\n"

    def test_conflicting_content_length_400_then_closed(self, server):
        """Differing repeated lengths leave the framing unknown (RFC 9112
        §6.3): one 400, then the close, whichever length the body fits."""
        lengths = b"Content-Length: 3\r\nContent-Length: %d\r\n" % len(
            self.QUERY
        )
        responses, ending = raw_exchange(
            server, self.POST + lengths + b"\r\n" + self.QUERY.encode()
        )
        assert [code for code, _ in responses] == [400]
        assert responses[0][1]["connection"] == "close"
        assert ending == "close"

    def test_repeated_equal_content_length_answered(self, server):
        length = b"Content-Length: %d\r\n" % len(self.QUERY)
        responses, ending = raw_exchange(
            server, self.POST + length * 2 + b"\r\n" + self.QUERY.encode()
        )
        assert [code for code, _ in responses] == [200]
        assert ending == "close"

    def test_pipelined_requests_answered_in_order(self, server):
        last = b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses, ending = raw_exchange(server, HEALTHZ + last)
        assert [code for code, _ in responses] == [200, 404]
        assert [headers["connection"] for _, headers in responses] == [
            "keep-alive",
            "close",
        ]
        assert ending == "close"

    def test_bare_lf_head_answered(self, server):
        head = b"GET /healthz HTTP/1.1\nHost: x\nConnection: close\n\n"
        responses, ending = raw_exchange(server, head)
        assert [code for code, _ in responses] == [200]
        assert ending == "close"

    def test_100_header_lines_answered(self, server):
        head = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
        responses, _ = raw_exchange(server, head + header_lines(99) + b"\r\n")
        assert [code for code, _ in responses] == [200]

    def test_keep_alive_after_body_and_body_errors(self, server):
        body = json.dumps({"source": "Tom", "target": "KDD", "path": "APC"})
        post = (
            b"POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
            % (len(body), body.encode())
        )
        bad = b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\noops"
        last = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
        responses, ending = raw_exchange(server, post + bad + last)
        assert [code for code, _ in responses] == [200, 400, 200]
        assert ending == "close"


class TestQueryEndpoints:
    def test_query_matches_engine(self, server, engine):
        status, headers, body = request(
            server,
            "POST",
            "/query",
            {"source": "Tom", "target": "KDD", "path": "APC"},
        )
        assert status == 200
        assert body["score"] == pytest.approx(
            engine.relevance("Tom", "KDD", "APC")
        )
        assert headers["x-repro-strategy"] == "exact"
        assert headers["x-repro-degraded"] == "false"
        assert "x-repro-tripped" not in headers

    def test_topk_matches_engine(self, server, engine):
        status, _, body = request(
            server,
            "POST",
            "/topk",
            {"source": "Tom", "path": "APC", "k": 2},
        )
        assert status == 200
        expected = engine.top_k("Tom", "APC", k=2)
        assert [tuple(item) for item in body["ranking"]] == [
            (key, pytest.approx(score)) for key, score in expected
        ]

    def test_topk_nonpositive_k_is_empty_200(self, server):
        status, _, body = request(
            server,
            "POST",
            "/topk",
            {"source": "Tom", "path": "APC", "k": 0},
        )
        assert status == 200
        assert body["ranking"] == []

    def test_batch_matches_query_server(self, server, engine):
        status, _, body = request(
            server,
            "POST",
            "/batch",
            {
                "queries": [
                    {"source": "Tom", "path": "APC", "k": 3},
                    {"source": "Mary", "path": "APC", "k": 3},
                ]
            },
        )
        assert status == 200
        assert body["stats"]["num_queries"] == 2
        assert body["stats"]["num_groups"] == 1
        tom = body["results"][0]["ranking"]
        assert [tuple(item) for item in tom] == [
            (key, pytest.approx(score))
            for key, score in engine.top_k("Tom", "APC", k=3)
        ]

    def test_empty_batch_answers_200(self, server):
        status, _, body = request(
            server, "POST", "/batch", {"queries": []}
        )
        assert status == 200
        assert body["results"] == []
        assert body["stats"]["num_queries"] == 0

    def test_warm(self, server):
        status, _, body = request(
            server, "POST", "/warm", {"paths": ["APC", "APCPA"]}
        )
        assert status == 200
        assert body["paths"] == ["APC", "APCPA"]


class TestWarmLimits:
    """``/warm`` runs under the tenant's limits like every other POST.
    A warm-up has no cheaper rung to fall back to, so a breach is a 503
    and nothing is materialised."""

    PATHS = ["APCPA", "CPAPC"]

    @pytest.fixture()
    def limited_server(self):
        engine = HeteSimEngine(fig4_network())  # cold: no memoised forms
        tenants = {
            "key-strict": Tenant(
                "strict",
                limits=ExecutionLimits(deadline_ms=0.0, max_bytes=1),
            ),
            "key-open": Tenant("open"),
        }
        with HttpServer(
            engine,
            admission=AdmissionController(tenants, queue_capacity=8),
        ) as running:
            yield running

    def _warmed(self, server):
        engine = server.engine
        return [engine.has_halves(engine.path(spec)) for spec in self.PATHS]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_breach_is_503_and_materialises_nothing(
        self, limited_server, workers
    ):
        body = {"paths": self.PATHS, "workers": workers}
        status, headers, reply = request(
            limited_server, "POST", "/warm", body, key="key-strict"
        )
        assert status == 503, reply
        assert reply["error"] == "resource_limit"
        assert headers["retry-after"] == "1"
        assert headers["x-repro-tripped"] in ("deadline", "max_bytes")
        assert self._warmed(limited_server) == [False, False]
        assert limited_server.admission.depth == 0
        # A tenant without limits still warms the same paths.
        status, _, reply = request(
            limited_server, "POST", "/warm", body, key="key-open"
        )
        assert status == 200, reply
        assert reply["paths"] == self.PATHS
        assert self._warmed(limited_server) == [True, True]


class TestWorkersBound:
    """A body's ``workers`` sizes a thread pool for that one request,
    so it may not exceed the server's own offload pool."""

    @pytest.mark.parametrize(
        "endpoint, body",
        [
            ("/batch", {"queries": [{"source": "Tom", "path": "APC"}]}),
            ("/warm", {"paths": ["APC"]}),
        ],
    )
    def test_workers_above_pool_size_400(self, server, endpoint, body):
        for workers in (server.workers + 1, 10**9):
            status, _, reply = request(
                server, "POST", endpoint, {**body, "workers": workers}
            )
            assert status == 400, (workers, reply)
            assert "workers" in reply["detail"]
        assert server.admission.depth == 0
        status, _, reply = request(
            server, "POST", endpoint, {**body, "workers": server.workers}
        )
        assert status == 200
        stats = reply if endpoint == "/warm" else reply["stats"]
        assert stats["workers"] == server.workers


class TestAdmission:
    @pytest.fixture()
    def auth_server(self, engine):
        tenants = {
            "key-burst1": Tenant("burst1", rate=0.01, burst=1.0),
            "key-open": Tenant("open"),
        }
        with HttpServer(
            engine,
            admission=AdmissionController(tenants, queue_capacity=8),
        ) as running:
            yield running

    BODY = {"source": "Tom", "target": "KDD", "path": "APC"}

    def test_missing_key_401(self, auth_server):
        status, headers, body = request(
            auth_server, "POST", "/query", self.BODY
        )
        assert status == 401
        assert headers["www-authenticate"] == "ApiKey"
        assert body["error"] == "unauthorized"

    def test_unknown_key_401(self, auth_server):
        status, _, _ = request(
            auth_server, "POST", "/query", self.BODY, key="wrong"
        )
        assert status == 401

    def test_bearer_token_accepted(self, auth_server):
        status, _, _ = request(
            auth_server,
            "POST",
            "/query",
            self.BODY,
            headers={"Authorization": "Bearer key-open"},
        )
        assert status == 200

    def test_unauthenticated_gets_stay_open(self, auth_server):
        assert request(auth_server, "GET", "/healthz")[0] == 200
        assert request(auth_server, "GET", "/metrics")[0] == 200

    def test_rate_limit_429_with_retry_after(self, auth_server):
        first, _, _ = request(
            auth_server, "POST", "/query", self.BODY, key="key-burst1"
        )
        assert first == 200
        status, headers, body = request(
            auth_server, "POST", "/query", self.BODY, key="key-burst1"
        )
        assert status == 429
        assert body["error"] == "rate_limited"
        assert float(headers["retry-after"]) > 0

    def test_queue_full_503(self, engine):
        with HttpServer(
            engine,
            admission=AdmissionController(
                {"k": Tenant("t")}, queue_capacity=0
            ),
        ) as running:
            status, headers, body = request(
                running, "POST", "/query", self.BODY, key="k"
            )
        assert status == 503
        assert body["error"] == "overloaded"
        assert headers["retry-after"] == "1"


class TestDegradation:
    """Overload must answer through the ladder with provenance headers,
    never a blind 500.  A zero deadline on a cold engine trips at the
    first materialisation checkpoint deterministically."""

    @pytest.fixture()
    def strict_server(self):
        engine = HeteSimEngine(fig4_network())  # cold: no memoised halves
        tenants = {
            "key-strict": Tenant(
                "strict", limits=ExecutionLimits(deadline_ms=0.0)
            )
        }
        with HttpServer(
            engine,
            admission=AdmissionController(tenants, queue_capacity=8),
        ) as running:
            yield running

    def test_query_degrades_with_provenance(self, strict_server):
        status, headers, body = request(
            strict_server,
            "POST",
            "/query",
            {"source": "Tom", "target": "KDD", "path": "APC"},
            key="key-strict",
        )
        assert status == 200
        assert headers["x-repro-degraded"] == "true"
        assert headers["x-repro-tripped"] == "deadline"
        assert headers["x-repro-strategy"] != "exact"
        assert body["degraded"] is True

    def test_batch_floor_retry_with_provenance(self, strict_server):
        status, headers, body = request(
            strict_server,
            "POST",
            "/batch",
            {"queries": [{"source": "Tom", "path": "APC", "k": 2}]},
            key="key-strict",
        )
        assert status == 200
        assert headers["x-repro-strategy"] == "truncate-final"
        assert headers["x-repro-tripped"] == "deadline"
        assert headers["x-repro-degraded"] == "true"
        assert body["results"][0]["ranking"]  # still a real answer

    def test_degraded_counter_increments(self, strict_server):
        request(
            strict_server,
            "POST",
            "/query",
            {"source": "Tom", "target": "KDD", "path": "APC"},
            key="key-strict",
        )
        _, _, text = request(strict_server, "GET", "/metrics")
        assert b"repro_http_degraded_total" in text


class TestContextPropagation:
    def test_scope_around_start_reaches_worker_threads(self):
        """Offloaded handlers adopt the ambient context of the thread
        that started the server: a zero deadline installed around
        ``start()`` trips the batch, which then answers from the
        floor."""
        server = HttpServer(HeteSimEngine(fig4_network()))
        with execution_scope(
            tracker=ExecutionLimits(deadline_ms=0.0).tracker()
        ):
            server.start()
        try:
            status, headers, _ = request(
                server,
                "POST",
                "/batch",
                {"queries": [{"source": "Tom", "path": "APCPA", "k": 2}]},
            )
        finally:
            server.stop()
        assert status == 200
        assert headers["x-repro-strategy"] == "truncate-final"
        assert headers["x-repro-tripped"] == "deadline"


class TestDrain:
    def test_inflight_request_completes_during_drain(self, engine):
        server = HttpServer(engine, drain_grace_s=10.0)
        server.start()
        entered = threading.Event()
        release = threading.Event()
        original = server.server.run

        def slow_run(batch, limits=None):
            entered.set()
            release.wait(timeout=10)
            return original(batch, limits=limits)

        server.server.run = slow_run
        outcome = {}

        def client():
            outcome["response"] = request(
                server,
                "POST",
                "/batch",
                {"queries": [{"source": "Tom", "path": "APC", "k": 2}]},
            )

        worker = threading.Thread(target=client)
        worker.start()
        assert entered.wait(timeout=10)
        port = server.port

        stopper = threading.Thread(
            target=lambda: server.stop(drain=True)
        )
        stopper.start()
        # Give the drain a moment to close the listener, then release
        # the in-flight request; drain must wait for it.
        time.sleep(0.1)
        assert stopper.is_alive()
        release.set()
        worker.join(timeout=10)
        stopper.join(timeout=10)
        status, headers, body = outcome["response"]
        assert status == 200
        assert body["results"][0]["ranking"]

        # The listener is gone: fresh connections are refused.
        with pytest.raises(OSError):
            connection = HTTPConnection("127.0.0.1", port, timeout=2)
            connection.request("GET", "/healthz")
            connection.getresponse()

    def test_healthz_reports_draining(self, engine):
        server = HttpServer(engine).start()
        try:
            assert (
                request(server, "GET", "/healthz")[2]["status"] == "ok"
            )
        finally:
            server.stop(drain=True)
