"""Batched, parallel query serving (Section 4.6 at serving scale).

The paper splits relevance search into an off-line materialisation
stage and an on-line query stage; this package makes the on-line stage
fast under *many-query* load:

* :class:`BatchRequest` / :class:`BatchResult` / :class:`QueryServer`
  -- group queries by meta path, materialise each path's halves exactly
  once, score every source of a group with a single block sparse GEMM,
  and select each query's top-k without sorting the target axis
  (:mod:`repro.serve.batch`);
* :class:`Dispatcher` -- thread-pool execution of independent
  materialisations with ambient execution-context propagation (limits
  and fault plans keep applying inside workers;
  :mod:`repro.serve.dispatch`);
* :class:`WarmReport` / :meth:`HeteSimEngine.warm
  <repro.core.engine.HeteSimEngine.warm>` -- the off-line stage as an
  API: pre-materialise half matrices and persist them through
  :class:`~repro.core.store.MatrixStore`.

* :class:`HttpServer` / :class:`AdmissionController` -- the network
  tier (:mod:`repro.serve.http`, :mod:`repro.serve.admission`): a
  stdlib-only async HTTP/1.1 front end with per-tenant API keys,
  token-bucket rate limits, a bounded admission queue with
  load-shedding, per-tenant execution limits, degradation-ladder
  overload answers (provenance in ``X-Repro-*`` headers) and graceful
  SIGTERM drain.

The CLI exposes the same functionality as ``serve-warm``,
``serve-batch`` and ``serve-http`` commands.
"""

from __future__ import annotations

from .admission import (
    Admission,
    AdmissionController,
    Tenant,
    TokenBucket,
    load_tenants,
    tenants_from_config,
)
from .batch import (
    BatchRequest,
    BatchResult,
    BatchStats,
    Query,
    QueryResult,
    QueryServer,
    serve_batch,
)
from .dispatch import Dispatcher, WarmReport
from .http import HttpRequest, HttpResponse, HttpServer
from .procs import usable_cpus

__all__ = [
    "Admission",
    "AdmissionController",
    "BatchRequest",
    "BatchResult",
    "BatchStats",
    "Dispatcher",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "Query",
    "QueryResult",
    "QueryServer",
    "Tenant",
    "TokenBucket",
    "WarmReport",
    "load_tenants",
    "serve_batch",
    "tenants_from_config",
    "usable_cpus",
]
