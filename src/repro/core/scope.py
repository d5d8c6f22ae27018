"""The ambient execution scope, and the one thread fan-out that carries it.

Section 4.6's quick-computation strategies act inside materialisation,
and so do a query's deadline, nnz/byte budgets and fault sites:
:func:`~repro.core.backend.materialise`,
:func:`~repro.core.hetesim.scoring_form`, the
:class:`~repro.core.store.MatrixStore` and the PPR power iteration
read them from the ambient :class:`ExecutionContext` defined here, so
no entry point needs a signature change to run under them.  Contexts
live in a :mod:`contextvars` variable (thread- and task-safe), and
:func:`fan_out` carries the calling thread's context into its workers.

What the limits are and which faults fire is policy, kept in
:mod:`repro.runtime` (:class:`~repro.runtime.limits.LimitTracker`,
:class:`~repro.runtime.faults.FaultPlan`, the degradation ladder),
which re-exports these names; core types them by the two protocols
below and names no runtime class.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ThreadPoolExecutor
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, List, Optional, Protocol, TypeVar

from ..hin.errors import QueryError
from ..obs.trace import adopt_span, current_span

__all__ = [
    "SITE_EXECUTOR_STEP",
    "SITE_STORE_READ",
    "SITE_STORE_WRITE",
    "ExecutionContext",
    "FaultHook",
    "Tracker",
    "adopt_context",
    "ambient_faults",
    "ambient_tracker",
    "current_context",
    "execution_scope",
    "fan_out",
    "truncating",
]

#: Fired before every chain product of :func:`~repro.core.backend.materialise`.
SITE_EXECUTOR_STEP = "executor.step"
#: Fired on every payload read in :class:`~repro.core.store.MatrixStore`.
SITE_STORE_READ = "store.read"
#: Fired on every payload write in :class:`~repro.core.store.MatrixStore`.
SITE_STORE_WRITE = "store.write"

T = TypeVar("T")
R = TypeVar("R")


class Tracker(Protocol):
    """What the enforcement points call on a limit tracker."""

    def check_deadline(self) -> None: ...

    def check_densify(self, cells: int) -> None: ...

    def charge(self, nnz: int, nbytes: int) -> None: ...


class FaultHook(Protocol):
    """What the fault sites call on a fault plan."""

    def fire(self, site: str) -> None: ...

    def filter(self, site: str, payload: bytes) -> bytes: ...


@dataclass
class ExecutionContext:
    """What materialisation consults while running under a scope.

    ``tracker`` enforces limits (None = unlimited), ``faults`` fires
    deterministic test faults (None = no injection), ``truncate_eps``
    drops post-product entries below the threshold (0 = exact).
    ``truncated_mass`` accumulates the total absolute value discarded by
    truncation -- the accuracy metadata degraded results report.
    """

    tracker: Optional[Tracker] = None
    faults: Optional[FaultHook] = None
    truncate_eps: float = 0.0
    truncated_mass: float = 0.0


_CONTEXT: ContextVar[Optional[ExecutionContext]] = ContextVar(
    "repro_execution_context", default=None
)


def current_context() -> Optional[ExecutionContext]:
    """The ambient :class:`ExecutionContext`, or None outside any scope."""
    return _CONTEXT.get()


def ambient_tracker() -> Optional[Tracker]:
    """The tracker of the ambient scope, if any."""
    context = _CONTEXT.get()
    return None if context is None else context.tracker


def ambient_faults() -> Optional[FaultHook]:
    """The fault hook of the ambient scope, if any."""
    context = _CONTEXT.get()
    return None if context is None else context.faults


def truncating() -> bool:
    """Whether the ambient scope truncates chain products.

    Products computed under truncation (a degraded strategy's
    ``truncate_eps > 0``) are not the exact matrices of any path; the
    cache consults this before storing anything or sharing a build.
    """
    context = _CONTEXT.get()
    return context is not None and context.truncate_eps > 0.0


@contextlib.contextmanager
def execution_scope(
    tracker: Optional[Tracker] = None,
    faults: Optional[FaultHook] = None,
    truncate_eps: float = 0.0,
) -> Iterator[ExecutionContext]:
    """Install an ambient execution context for the duration of a block.

    Everything the block runs -- engine queries, cache materialisation,
    store IO -- sees the context through :func:`current_context` and
    enforces/injects accordingly.  Scopes nest; the previous context is
    restored on exit.

    Examples
    --------
    >>> from repro.runtime import ExecutionLimits, execution_scope
    >>> limits = ExecutionLimits(deadline_ms=50)       # doctest: +SKIP
    >>> with execution_scope(tracker=limits.tracker()):  # doctest: +SKIP
    ...     engine.relevance("Tom", "KDD", "APC")
    """
    if truncate_eps < 0:
        raise QueryError(f"truncate_eps must be >= 0, got {truncate_eps}")
    context = ExecutionContext(
        tracker=tracker, faults=faults, truncate_eps=truncate_eps
    )
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


@contextlib.contextmanager
def adopt_context(
    context: Optional[ExecutionContext],
) -> Iterator[Optional[ExecutionContext]]:
    """Install an *existing* :class:`ExecutionContext` in this thread.

    :mod:`contextvars` values do not cross thread boundaries, so a
    worker thread starts with no ambient context; :func:`fan_out` wraps
    every task in ``adopt_context(captured)``, so the *same* tracker
    (shared deadline and cumulative budgets) and the same fault plan
    counters keep enforcing inside the pool.  ``adopt_context(None)``
    is a no-op scope.
    """
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


def fan_out(
    fn: Callable[[T], R], items: Iterable[T], workers: int
) -> List[R]:
    """``[fn(item) for item in items]`` on up to ``workers`` threads.

    Results keep the input order.  Every task runs in the calling
    thread's execution context and under its ambient span, so limits,
    fault plans and traces behave as if it ran inline; a task that
    raises re-raises here once every task has been scheduled.
    ``workers == 1`` (or at most one item) is a plain loop in the
    calling thread: the reference execution.
    """
    if workers < 1:
        raise QueryError(f"workers must be >= 1, got {workers}")
    items = list(items)
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    context = current_context()
    parent_span = current_span()

    def run(item: T) -> R:
        with adopt_context(context), adopt_span(parent_span):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]
