"""Resilient query runtime: limits, degradation, fault injection.

The robustness layer wrapped around the planner/backend of
:mod:`repro.core`:

* :class:`ExecutionLimits` / :class:`LimitTracker` -- declarative
  deadlines and nnz/byte budgets, enforced cooperatively inside
  :mod:`repro.core` (:mod:`repro.runtime.limits`);
* :class:`ResilientRuntime` / :class:`DegradedResult` -- graceful
  degradation through progressively cheaper §4.6-style strategies
  instead of crashing (:mod:`repro.runtime.resilience`);
* :class:`FaultPlan` -- deterministic, seedable fault injection into
  the executor and store IO (:mod:`repro.runtime.faults`);
* :func:`run_doctor` -- artefact health checks behind the
  ``repro doctor`` CLI command (:mod:`repro.runtime.doctor`).

The ambient scope those policies travel in -- :func:`execution_scope`,
:func:`current_context`, :func:`adopt_context`, :func:`ambient_faults`
and the ``SITE_*`` fault sites -- is defined in :mod:`repro.core.scope`,
where it is enforced, and re-exported here.
"""

from __future__ import annotations

from .doctor import DoctorCheck, DoctorReport, run_doctor
from .faults import (
    SITE_EXECUTOR_STEP,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    FaultPlan,
    FaultSpec,
    ambient_faults,
)
from .limits import (
    ExecutionContext,
    ExecutionLimits,
    LimitTracker,
    adopt_context,
    current_context,
    execution_scope,
)
from .resilience import (
    DEFAULT_POLICY,
    Attempt,
    DegradedResult,
    ResilientRuntime,
    Strategy,
)

__all__ = [
    "Attempt",
    "DEFAULT_POLICY",
    "DegradedResult",
    "DoctorCheck",
    "DoctorReport",
    "ExecutionContext",
    "ExecutionLimits",
    "FaultPlan",
    "FaultSpec",
    "LimitTracker",
    "ResilientRuntime",
    "SITE_EXECUTOR_STEP",
    "SITE_STORE_READ",
    "SITE_STORE_WRITE",
    "Strategy",
    "adopt_context",
    "ambient_faults",
    "current_context",
    "execution_scope",
    "run_doctor",
]
