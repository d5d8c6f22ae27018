"""repro.obs: the unified observability layer (tracing + metrics).

Every subsystem the serving stack touches -- the planned backend, the
path-matrix cache, the engine's half-matrix memo, batch scoring, the
degradation ladder, limit enforcement and fault injection -- reports
into the two primitives of this package:

* :mod:`repro.obs.trace` -- contextvar-scoped spans.  A
  :class:`~repro.obs.trace.Span` wraps one unit of work (a plan step, a
  halves materialisation, a batch group's GEMM, one degradation-ladder
  rung) and nests under the ambient parent span; worker threads adopt
  the submitting thread's span the same way they adopt the ambient
  :class:`~repro.core.scope.ExecutionContext` (see
  :func:`repro.core.scope.fan_out`), so one request's tree stays
  connected across the pool.  Tracing is **off by default** and
  the disabled fast path is a single attribute read.
* :mod:`repro.obs.metrics` -- a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  fixed-bucket histograms, always on (counter bumps are one locked
  add).  The pre-existing stats types (``CacheStats``, ``BatchStats``,
  the engine's materialisation count) are *views over* these series
  rather than parallel bookkeeping, so the numbers a test asserts on
  and the numbers an operator scrapes can never diverge.
* :mod:`repro.obs.export` -- Prometheus text-format and JSON emitters
  over a registry snapshot, behind the ``hetesim metrics`` /
  ``hetesim trace`` CLI commands and the benchmark metric dumps.

The package needs nothing beyond the standard library and
:mod:`repro.hin.errors`, so importing it can never create a cycle with
the subsystems it instruments.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    REGISTRY,
)
from .trace import (
    NULL_SPAN,
    Span,
    Tracer,
    TRACER,
    adopt_span,
    current_span,
    span,
)
from .export import (
    PROMETHEUS_CONTENT_TYPE,
    json_snapshot,
    prometheus_text,
    render_json,
)

__all__ = [
    "Counter",
    "PROMETHEUS_CONTENT_TYPE",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "REGISTRY",
    "Span",
    "TRACER",
    "Tracer",
    "adopt_span",
    "current_span",
    "json_snapshot",
    "prometheus_text",
    "render_json",
    "span",
]
