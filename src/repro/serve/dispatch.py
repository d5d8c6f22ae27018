"""Concurrent materialisation dispatch for the serving layer.

:class:`Dispatcher` is a thin :class:`~concurrent.futures.ThreadPoolExecutor`
front that runs independent tasks (per-path half materialisation,
per-group batch scoring) in parallel while **propagating the ambient
execution context** into every worker.  :mod:`contextvars` values do
not cross thread boundaries, so without the propagation a deadline or
fault plan installed by :func:`~repro.runtime.limits.execution_scope`
in the submitting thread would silently stop applying inside the
pool; the dispatcher captures :func:`~repro.runtime.limits.current_context`
at submit time and wraps each task in
:func:`~repro.runtime.limits.adopt_context`, so the *same* tracker
(shared deadline, cumulative budgets) and the same
:class:`~repro.runtime.faults.FaultPlan` counters keep firing.
Concurrent tasks that need one path share its build through
:meth:`~repro.core.cache.PathMatrixCache.get_or_build`.

Threads (not processes) are the right pool here: scipy releases the
GIL inside sparse matrix products, which is where batch serving spends
its time.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple, TypeVar

from ..hin.errors import QueryError
from ..obs.trace import adopt_span, current_span
from ..runtime.limits import adopt_context, current_context

__all__ = ["Dispatcher", "WarmReport"]

T = TypeVar("T")
R = TypeVar("R")


class Dispatcher:
    """Run independent tasks on a thread pool with context propagation.

    ``workers=1`` (the default) degrades to a plain sequential loop in
    the calling thread -- no pool, no context juggling -- so the
    single-worker execution is byte-for-byte the reference semantics
    that parallel runs are tested against.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def map(
        self, fn: Callable[[T], R], items: Sequence[T]
    ) -> List[R]:
        """``[fn(item) for item in items]``, possibly in parallel.

        Results keep the input order regardless of completion order.
        A task that raises re-raises in the caller after all tasks have
        been scheduled; the ambient execution context of the *calling*
        thread is installed around every task, so limits and fault
        injection behave as if the tasks ran inline.
        """
        items = list(items)
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        context = current_context()
        parent_span = current_span()

        def run(item: T) -> R:
            with adopt_context(context), adopt_span(parent_span):
                return fn(item)

        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(run, item) for item in items]
            return [future.result() for future in futures]


@dataclass(frozen=True)
class WarmReport:
    """What :meth:`HeteSimEngine.warm <repro.core.engine.HeteSimEngine.warm>`
    did: which paths were pre-materialised, which half-path matrices
    were persisted, which paths could not be persisted, and how long
    the warm-up took.

    ``skipped`` lists odd (edge-object) paths whose transition halves
    cannot round-trip through a matrix store: they were memoised for
    this process but a fresh process must recompute them.  An empty
    tuple when no store was given or every path persisted fully.
    """

    paths: Tuple[str, ...]
    persisted: Tuple[str, ...]
    workers: int
    seconds: float
    skipped: Tuple[str, ...] = ()

    def summary(self) -> str:
        """One-line rendering (the ``serve-warm`` CLI output)."""
        persisted = (
            f", persisted {len(self.persisted)} half matrices"
            if self.persisted
            else ""
        )
        skipped = (
            f", skipped persisting {len(self.skipped)} odd path(s) "
            f"[{', '.join(self.skipped)}]"
            if self.skipped
            else ""
        )
        return (
            f"warmed {len(self.paths)} path(s) "
            f"[{', '.join(self.paths)}] with {self.workers} worker(s) "
            f"in {self.seconds * 1e3:.1f} ms{persisted}{skipped}"
        )
