"""Execution limits: the resource envelope of a query and its tracker.

:class:`ExecutionLimits` describes the resource envelope of one query:
a wall-clock deadline plus cumulative nnz / byte budgets and a cap on
densified intermediates.  Limits are *declarative*; enforcement happens
cooperatively inside :mod:`repro.core` (between the chain products of
:func:`~repro.core.backend.materialise`, around each scoring form), which
consults a per-attempt :class:`LimitTracker` and raises the typed faults
:class:`~repro.hin.errors.DeadlineExceededError` /
:class:`~repro.hin.errors.BudgetExceededError` on breach.

The tracker (together with an optional
:class:`~repro.runtime.faults.FaultPlan` and a truncation threshold)
travels through the call stack as the ambient
:class:`~repro.core.scope.ExecutionContext` that
:func:`~repro.core.scope.execution_scope` installs; both are defined in
:mod:`repro.core.scope` and re-exported here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.scope import (
    ExecutionContext,
    adopt_context,
    current_context,
    execution_scope,
)
from ..hin.errors import (
    BudgetExceededError,
    DeadlineExceededError,
    QueryError,
)
from ..obs.metrics import REGISTRY

_LIMIT_TRIPS = REGISTRY.counter(
    "repro_limit_trips_total",
    "Resource-limit breaches, labelled by the limit that tripped.",
)

__all__ = [
    "ExecutionLimits",
    "LimitTracker",
    "ExecutionContext",
    "execution_scope",
    "adopt_context",
    "current_context",
]


@dataclass(frozen=True)
class ExecutionLimits:
    """Resource envelope for one query (all fields optional).

    Attributes
    ----------
    deadline_ms:
        Wall-clock budget in milliseconds, measured from the moment a
        :class:`LimitTracker` is created.  ``0`` is legal and trips on
        the first cooperative check (useful for deterministic tests).
    max_nnz:
        Cumulative cap on the stored nonzeros produced across all plan
        steps of the query.
    max_bytes:
        Cumulative cap on the bytes materialised across all plan steps
        (CSR data + index arrays, or dense array bytes).
    max_densified_cells:
        Largest dense intermediate (in cells) the executor may allocate;
        checked *before* densification so the allocation never happens.
    """

    deadline_ms: Optional[float] = None
    max_nnz: Optional[int] = None
    max_bytes: Optional[int] = None
    max_densified_cells: Optional[int] = None

    def __post_init__(self) -> None:
        for name in (
            "deadline_ms",
            "max_nnz",
            "max_bytes",
            "max_densified_cells",
        ):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise QueryError(f"{name} must be >= 0, got {value}")

    @property
    def unlimited(self) -> bool:
        """True when no field constrains anything."""
        return (
            self.deadline_ms is None
            and self.max_nnz is None
            and self.max_bytes is None
            and self.max_densified_cells is None
        )

    def tracker(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "LimitTracker":
        """Start a fresh tracker (the deadline clock begins now)."""
        return LimitTracker(self, clock=clock)

    def intersect(
        self, other: Optional["ExecutionLimits"]
    ) -> "ExecutionLimits":
        """The element-wise *strictest* combination of two envelopes.

        The multi-tenant resolution primitive: the serving tier
        computes ``tenant_limits.intersect(server_default)`` so a
        tenant's own envelope can only ever tighten the operator's
        bounds, never widen them.  ``None`` fields (unlimited) defer to
        the other side; ``intersect(None)`` returns ``self``.
        """
        if other is None:
            return self

        def strictest(
            mine: Optional[float], theirs: Optional[float]
        ) -> Optional[float]:
            if mine is None:
                return theirs
            if theirs is None:
                return mine
            return min(mine, theirs)

        def strictest_int(
            mine: Optional[int], theirs: Optional[int]
        ) -> Optional[int]:
            merged = strictest(mine, theirs)
            return None if merged is None else int(merged)

        return ExecutionLimits(
            deadline_ms=strictest(self.deadline_ms, other.deadline_ms),
            max_nnz=strictest_int(self.max_nnz, other.max_nnz),
            max_bytes=strictest_int(self.max_bytes, other.max_bytes),
            max_densified_cells=strictest_int(
                self.max_densified_cells, other.max_densified_cells
            ),
        )


class LimitTracker:
    """Mutable enforcement state for one query attempt.

    Created from :class:`ExecutionLimits` when the attempt starts; the
    backend calls :meth:`check_deadline` between steps and
    :meth:`charge` / :meth:`check_densify` as work is produced.  All
    breaches raise the typed errors of the
    :class:`~repro.hin.errors.ReproError` hierarchy.
    """

    def __init__(
        self,
        limits: ExecutionLimits,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limits = limits
        self._clock = clock
        self.started = clock()
        self.nnz_charged = 0
        self.bytes_charged = 0
        self.steps_executed = 0
        # Budgets are cumulative across every thread a query fans out to
        # (repro.core.scope.fan_out workers adopt the submitting scope's
        # context), so the counters must tolerate concurrent charges.
        self._charge_lock = threading.Lock()

    @property
    def elapsed_ms(self) -> float:
        """Milliseconds since the tracker was created."""
        return (self._clock() - self.started) * 1e3

    def check_deadline(self) -> None:
        """Raise :class:`DeadlineExceededError` once the deadline passed."""
        deadline = self.limits.deadline_ms
        if deadline is None:
            return
        elapsed = self.elapsed_ms
        # Inclusive so that ``deadline_ms=0`` trips at the very first
        # checkpoint even on clocks too coarse to have advanced yet.
        if elapsed >= deadline:
            _LIMIT_TRIPS.labels(limit="deadline_ms").inc()
            raise DeadlineExceededError(elapsed, deadline)

    def charge(self, nnz: int, nbytes: int) -> None:
        """Account one step's output against the cumulative budgets."""
        with self._charge_lock:
            self.nnz_charged += int(nnz)
            self.bytes_charged += int(nbytes)
            self.steps_executed += 1
            nnz_charged = self.nnz_charged
            bytes_charged = self.bytes_charged
        max_nnz = self.limits.max_nnz
        if max_nnz is not None and nnz_charged > max_nnz:
            _LIMIT_TRIPS.labels(limit="max_nnz").inc()
            raise BudgetExceededError("max_nnz", nnz_charged, max_nnz)
        max_bytes = self.limits.max_bytes
        if max_bytes is not None and bytes_charged > max_bytes:
            _LIMIT_TRIPS.labels(limit="max_bytes").inc()
            raise BudgetExceededError(
                "max_bytes", bytes_charged, max_bytes
            )

    def check_densify(self, cells: int) -> None:
        """Veto a dense intermediate larger than the configured cap."""
        cap = self.limits.max_densified_cells
        if cap is not None and cells > cap:
            _LIMIT_TRIPS.labels(limit="max_densified_cells").inc()
            raise BudgetExceededError("max_densified_cells", cells, cap)
