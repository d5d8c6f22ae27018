"""Contextvar-scoped execution spans for the serving hot paths.

A :class:`Span` measures one unit of work -- a plan step, a halves
materialisation, a batch group's block GEMM, one rung of the
degradation ladder -- and nests under the span that was ambient when it
started, forming the per-request tree ``serve-batch --trace`` and
``hetesim trace`` print.

The design constraints, in order:

1. **Free when off.**  Tracing is disabled by default;
   :meth:`Tracer.span` then returns a shared no-op context manager
   whose enter/exit do nothing, so instrumenting a hot loop costs one
   attribute read per iteration.
2. **Thread-propagated.**  The ambient span lives in a
   :mod:`contextvars` variable, which does not cross thread
   boundaries.  The one thread fan-out,
   :func:`repro.core.scope.fan_out`, therefore captures
   :func:`current_span` in the calling thread and wraps every pooled
   task in :func:`adopt_span` -- exactly the discipline
   :func:`repro.core.scope.adopt_context` established for limits and
   fault plans, and enforced by lint rule RPR005.  Child spans started
   on worker threads attach to the shared parent under a lock.
3. **Bounded.**  Completed root spans are kept in a fixed-size ring
   (:data:`ROOT_LIMIT`); a long-lived tracer never grows without
   bound.

Timing uses :func:`time.perf_counter` (a duration clock, not a
wall-clock read -- RPR003 compliant).
"""

from __future__ import annotations

import contextlib
import threading
import time
from contextvars import ContextVar, Token
from types import TracebackType
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "ROOT_LIMIT",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TRACER",
    "adopt_span",
    "current_span",
    "span",
]

#: Completed root spans a tracer retains (oldest evicted first).
ROOT_LIMIT = 64


class Span:
    """One timed, attributed node of a trace tree.

    Children may be appended from several threads at once (a warm-up
    or a batch fans its materialisations across a pool), so the child
    list append is lock-guarded.  Attribute writes happen only from the
    owning thread (the one inside the ``with`` block) and need no lock.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "error",
        "_started",
        "seconds",
        "_children_lock",
    )

    def __init__(self, name: str, **attributes: Any) -> None:
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes)
        self.children: List["Span"] = []
        self.error: Optional[str] = None
        self.seconds: Optional[float] = None
        self._started = time.perf_counter()
        self._children_lock = threading.Lock()

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def add_child(self, child: "Span") -> None:
        """Attach a completed or in-flight child (thread-safe)."""
        with self._children_lock:
            self.children.append(child)

    def finish(self, error: Optional[BaseException] = None) -> None:
        """Stamp the duration (idempotent) and any terminating error."""
        if self.seconds is None:
            self.seconds = time.perf_counter() - self._started
        if error is not None and self.error is None:
            self.error = f"{type(error).__name__}: {error}"

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds (0.0 while still running)."""
        return (self.seconds or 0.0) * 1e3

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready nested rendering of the subtree."""
        node: Dict[str, Any] = {
            "name": self.name,
            "duration_ms": self.duration_ms,
        }
        if self.attributes:
            node["attributes"] = dict(self.attributes)
        if self.error:
            node["error"] = self.error
        with self._children_lock:
            children = list(self.children)
        if children:
            node["children"] = [child.to_dict() for child in children]
        return node

    def render(self, indent: int = 0) -> str:
        """Human-readable indented subtree (the ``--trace`` output)."""
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(self.attributes.items())
        )
        line = f"{'  ' * indent}{self.name}  {self.duration_ms:.3f} ms"
        if attrs:
            line += f"  [{attrs}]"
        if self.error:
            line += f"  !{self.error}"
        with self._children_lock:
            children = list(self.children)
        return "\n".join(
            [line, *(child.render(indent + 1) for child in children)]
        )


class NullSpan:
    """The shared do-nothing span handed out while tracing is off.

    Accepts the whole :class:`Span` surface so instrumented code never
    branches on the tracer state.
    """

    __slots__ = ()

    name = ""
    attributes: Dict[str, Any] = {}
    children: List[Span] = []
    error = None
    seconds = 0.0
    duration_ms = 0.0

    def set(self, **attributes: Any) -> "NullSpan":
        """No-op; returns self."""
        return self

    def add_child(self, child: Span) -> None:
        """No-op."""

    def finish(self, error: Optional[BaseException] = None) -> None:
        """No-op."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: The singleton no-op span/context-manager.
NULL_SPAN = NullSpan()

_ACTIVE: ContextVar[Optional[Span]] = ContextVar(
    "repro_active_span", default=None
)


class _SpanScope:
    """Context manager that installs a live span as the ambient one."""

    __slots__ = ("tracer", "span", "_token", "_is_root")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span
        self._token: Optional[Token[Optional[Span]]] = None
        self._is_root = False

    def __enter__(self) -> Span:
        parent = _ACTIVE.get()
        if parent is not None:
            parent.add_child(self.span)
        else:
            self._is_root = True
        self._token = _ACTIVE.set(self.span)
        return self.span

    def __exit__(
        self,
        exc_type: Optional[type],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if self._token is not None:
            _ACTIVE.reset(self._token)
        self.span.finish(error=exc)
        if self._is_root:
            self.tracer._retain_root(self.span)
        return None


class Tracer:
    """Factory and retention buffer for spans.

    Disabled by default; :meth:`enable` turns span recording on for the
    whole process.  Completed spans with no parent are retained in
    :attr:`roots` (a bounded ring) for the CLI to print.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._roots_lock = threading.Lock()
        self.roots: List[Span] = []

    # -- lifecycle -----------------------------------------------------
    def enable(self) -> None:
        """Start recording spans."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording spans (retained roots survive)."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every retained root span."""
        with self._roots_lock:
            self.roots.clear()

    # -- span creation -------------------------------------------------
    def span(
        self, name: str, **attributes: Any
    ) -> Union[NullSpan, "_SpanScope"]:
        """A context manager measuring one unit of work.

        Disabled tracer: returns the shared no-op manager (one
        attribute read, no allocation).  Enabled: creates a
        :class:`Span`, attaches it to the ambient parent, installs it
        as ambient for the block, and finishes it (recording any
        in-flight exception type) on exit.
        """
        if not self.enabled:
            return NULL_SPAN
        return _SpanScope(self, Span(name, **attributes))

    def _retain_root(self, span: Span) -> None:
        """Keep a completed parentless span in the bounded root ring.

        Spans adopted into worker threads always have an ambient parent
        there (``fan_out`` installs it), so they are attached as
        children and never reach this path.
        """
        with self._roots_lock:
            self.roots.append(span)
            del self.roots[:-ROOT_LIMIT]


#: The process-wide tracer all library instrumentation uses.
TRACER = Tracer()


def span(name: str, **attributes: Any) -> Union[NullSpan, _SpanScope]:
    """``TRACER.span(...)`` -- the form instrumentation sites import."""
    return TRACER.span(name, **attributes)


def current_span() -> Optional[Span]:
    """The ambient :class:`Span`, or None outside any span (or when
    tracing is disabled)."""
    return _ACTIVE.get()


@contextlib.contextmanager
def adopt_span(parent: Optional[Span]) -> Iterator[Optional[Span]]:
    """Install an *existing* span as this thread's ambient parent.

    The cross-thread propagation primitive, used exactly like
    :func:`repro.core.scope.adopt_context`: ``fan_out`` captures
    :func:`current_span` in the submitting thread and wraps each pooled
    task in ``adopt_span(captured)``, so spans started inside workers
    attach to the same request tree.  ``adopt_span(None)`` is a no-op
    scope.
    """
    token = _ACTIVE.set(parent)
    try:
        yield parent
    finally:
        _ACTIVE.reset(token)
