"""Resilient query runtime: limits, degradation, fault injection.

The robustness layer wrapped around the planner/backend of
:mod:`repro.core`:

* :class:`ExecutionLimits` / :func:`execution_scope` -- declarative
  deadlines and nnz/byte budgets, enforced cooperatively between plan
  steps inside :mod:`repro.core.backend`
  (:mod:`repro.runtime.limits`);
* :class:`ResilientRuntime` / :class:`DegradedResult` -- graceful
  degradation through progressively cheaper §4.6-style strategies
  instead of crashing (:mod:`repro.runtime.resilience`);
* :class:`FaultPlan` -- deterministic, seedable fault injection into
  the executor and store IO (:mod:`repro.runtime.faults`);
* :func:`run_doctor` -- artefact health checks behind the
  ``repro doctor`` CLI command (:mod:`repro.runtime.doctor`).

The primitive layers (limits, faults) import nothing from
:mod:`repro.core`, so the backend can depend on them; the high-level
layers (resilience, doctor) sit above core and are loaded lazily here
to keep the dependency graph acyclic.
"""

from __future__ import annotations

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

# Lazily exported (PEP 562): these modules import repro.core, which in
# turn imports repro.runtime.limits -- eager imports here would cycle.
_LAZY = {
    "Attempt": "resilience",
    "DEFAULT_POLICY": "resilience",
    "DegradedResult": "resilience",
    "ResilientRuntime": "resilience",
    "Strategy": "resilience",
    "DoctorCheck": "doctor",
    "DoctorReport": "doctor",
    "run_doctor": "doctor",
}


def __getattr__(name: str):
    """Resolve the lazily exported resilience/doctor symbols."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    from importlib import import_module

    module = import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    """Advertise lazy exports alongside the eagerly bound names."""
    return sorted(set(globals()) | set(_LAZY))
