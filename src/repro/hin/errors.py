"""Exception hierarchy for the heterogeneous-information-network substrate.

All errors raised by :mod:`repro` derive from :class:`ReproError`, so a
caller can catch a single base class.  Sub-classes partition faults by the
layer that detected them:

* :class:`SchemaError` -- ill-formed network schemas (duplicate types,
  relations referencing unknown types, ...).
* :class:`GraphError` -- ill-formed graph data (unknown node, edge whose
  endpoints violate the relation's source/target types, ...).
* :class:`PathError` -- ill-formed or schema-incompatible meta paths.
* :class:`QueryError` -- bad arguments to search / measure APIs.
* :class:`ResourceLimitError` -- a query exceeded an execution limit
  (:class:`DeadlineExceededError`, :class:`BudgetExceededError`).
* :class:`StoreIntegrityError` -- persisted matrix data failed an
  integrity check (checksum mismatch, unreadable payload).
* :class:`InjectedFaultError` -- a deterministic test fault fired
  (:mod:`repro.runtime.faults`); never raised in production use.
* :class:`ReportError` -- an experiment table/chart renderer received
  ill-formed inputs (:mod:`repro.experiments`).
* :class:`AnalysisError` -- the static-analysis layer
  (:mod:`repro.analysis`) was misconfigured (malformed baseline, bad
  rule setup).

The typed-error discipline is machine-checked: lint rule **RPR002**
(``hetesim lint``) flags any ``raise`` of a bare builtin exception in
library code.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class SchemaError(ReproError):
    """The network schema is ill-formed or a lookup referenced a missing
    object type / relation."""


class GraphError(ReproError):
    """The graph violates its schema (unknown node, badly-typed edge, ...)
    or a node lookup failed."""


class PathError(ReproError):
    """A meta path could not be parsed or is not valid under the schema."""


class QueryError(ReproError):
    """A relevance-search or similarity query received invalid arguments."""


class ResourceLimitError(ReproError):
    """A query exceeded one of its :class:`repro.runtime.ExecutionLimits`.

    ``limit`` names the tripped limit (``"deadline"``, ``"max_nnz"``,
    ``"max_bytes"`` or ``"max_densified_cells"``); ``observed`` and
    ``allowed`` carry the measured value and the configured bound.
    """

    def __init__(
        self,
        message: str,
        *,
        limit: str,
        observed: float,
        allowed: float,
    ) -> None:
        super().__init__(message)
        self.limit = limit
        self.observed = observed
        self.allowed = allowed


class DeadlineExceededError(ResourceLimitError):
    """The query's wall-clock deadline elapsed before it finished."""

    def __init__(self, elapsed_ms: float, deadline_ms: float) -> None:
        super().__init__(
            f"deadline exceeded: {elapsed_ms:.2f} ms elapsed "
            f"(deadline {deadline_ms:.2f} ms)",
            limit="deadline",
            observed=elapsed_ms,
            allowed=deadline_ms,
        )
        self.elapsed_ms = elapsed_ms
        self.deadline_ms = deadline_ms


class BudgetExceededError(ResourceLimitError):
    """A cumulative work budget (nnz, bytes, densified cells) ran out."""

    def __init__(self, limit: str, observed: float, allowed: float) -> None:
        super().__init__(
            f"budget exceeded: {limit} reached {observed:.0f} "
            f"(allowed {allowed:.0f})",
            limit=limit,
            observed=observed,
            allowed=allowed,
        )


class StoreIntegrityError(ReproError):
    """Persisted matrix data failed verification on load.

    Raised by :class:`repro.core.store.MatrixStore` when a stored
    payload's checksum disagrees with its index entry -- the signature of
    a torn write or on-disk corruption.
    """


class ReportError(ReproError):
    """An experiment table/chart renderer received ill-formed inputs.

    Raised by :mod:`repro.experiments.tables` /
    :mod:`repro.experiments.charts` for mismatched row or series
    lengths and non-positive render widths.
    """


class AnalysisError(ReproError):
    """The static-analysis layer (:mod:`repro.analysis`) was
    misconfigured: a malformed ``lint_baseline.toml``, an entry missing
    its required justification, or an invalid rule setup."""


class InjectedFaultError(ReproError):
    """A deterministic fault from a :class:`repro.runtime.FaultPlan` fired.

    Only ever raised under an explicit fault-injection harness; carries
    the site and occurrence index so tests can assert exact provenance.
    """

    def __init__(self, site: str, occurrence: int, detail: Optional[str] = None) -> None:
        message = f"injected fault at {site}#{occurrence}"
        if detail:
            message += f": {detail}"
        super().__init__(message)
        self.site = site
        self.occurrence = occurrence
        self.detail = detail
