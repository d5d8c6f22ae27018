"""Execution backend for planned path-matrix materialisation.

The one place in the codebase that *runs* a :class:`~repro.core.plan.PathPlan`:
every consumer (the cache, the engine, PathSim, PCRW, the reachable-
probability helpers) plans with :func:`repro.core.plan.plan_path` and
executes here.  Centralising execution buys three things:

* per-step timing, flop and nnz counters (:class:`PlanStats`) exposed
  uniformly to the engine and the CLI ``cache-stats`` command;
* one implementation of the CSR-vs-dense switch the planner decides;
* a single seam where alternative backends (sharded, threaded, GPU)
  can later be substituted without touching any measure code.

The executor is also the *cooperative enforcement point* of the
resilience layer (:mod:`repro.runtime`): between schedule steps it
consults the ambient :class:`~repro.runtime.limits.ExecutionContext`
(installed by :func:`~repro.runtime.limits.execution_scope`) to check
wall-clock deadlines and nnz/byte budgets, to fire deterministic test
faults, and to apply entry truncation when a degraded strategy asks for
it.  Outside any scope the checks are a single ``None`` test per plan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from scipy import sparse

from ..hin.graph import HeteroGraph
from ..hin.matrices import factor_matrix
from ..hin.metapath import MetaPath
from ..obs.metrics import NNZ_BUCKETS, REGISTRY, SECONDS_BUCKETS
from ..obs.trace import span as trace_span
from ..runtime.faults import SITE_EXECUTOR_STEP
from ..runtime.limits import ExecutionContext, current_context
from .plan import Factor, PathKey, PathPlan, plan_path

_PLANS = REGISTRY.counter(
    "repro_plan_executions_total", "Planned materialisations executed."
)
_STEP_SECONDS = REGISTRY.histogram(
    "repro_plan_step_seconds",
    "Wall time of one plan-step sparse product.",
    buckets=SECONDS_BUCKETS,
)
_STEP_NNZ = REGISTRY.histogram(
    "repro_plan_step_nnz",
    "Nonzeros of one plan-step product.",
    buckets=NNZ_BUCKETS,
)

__all__ = [
    "StepStat",
    "PlanStats",
    "execute_plan",
    "materialise",
    "truncating",
    "reach_prob_chain",
]

StoreFn = Callable[[PathKey, sparse.csr_matrix], None]


@dataclass(frozen=True)
class StepStat:
    """Measured execution record of one schedule step."""

    description: str
    shape: Tuple[int, int]
    nnz: int
    est_nnz: float
    seconds: float
    densified: bool
    stored_key: Optional[PathKey] = None


@dataclass
class PlanStats:
    """What actually happened while executing one :class:`PathPlan`.

    ``prefix_key`` names the cached prefix that was reused (None when the
    chain was computed from scratch); ``shared`` holds the nested stats
    of a mirrored-half sub-plan; ``seconds`` covers the whole execution
    including factor materialisation.
    """

    key: PathKey
    steps: List[StepStat] = field(default_factory=list)
    prefix_key: Optional[PathKey] = None
    shared: Optional["PlanStats"] = None
    seconds: float = 0.0
    output_shape: Tuple[int, int] = (0, 0)
    output_nnz: int = 0
    est_flops: float = 0.0

    def summary(self) -> str:
        """Multi-line human-readable rendering (CLI ``cache-stats``)."""
        lines = [
            f"plan {'.'.join(self.key)}: {len(self.steps)} step(s), "
            f"{self.seconds * 1e3:.2f} ms, output "
            f"{self.output_shape[0]}x{self.output_shape[1]} "
            f"nnz={self.output_nnz}, est flops={self.est_flops:.0f}"
        ]
        if self.prefix_key:
            lines.append(f"  reused cached prefix {'.'.join(self.prefix_key)}")
        if self.shared is not None:
            lines.append(
                f"  mirrored half computed once "
                f"({len(self.shared.steps)} step(s), "
                f"{self.shared.seconds * 1e3:.2f} ms)"
            )
        for index, step in enumerate(self.steps):
            stored = (
                f" -> cached {'.'.join(step.stored_key)}"
                if step.stored_key
                else ""
            )
            dense = " [dense]" if step.densified else ""
            lines.append(
                f"  step {index}: {step.description}  "
                f"nnz={step.nnz} (est {step.est_nnz:.0f})  "
                f"{step.seconds * 1e3:.3f} ms{dense}{stored}"
            )
        return "\n".join(lines)


def _nnz(matrix) -> int:
    if sparse.issparse(matrix):
        return int(matrix.nnz)
    return int(np.count_nonzero(matrix))


def _nbytes(matrix) -> int:
    """Bytes materialised for one intermediate (CSR arrays or dense)."""
    if sparse.issparse(matrix):
        csr = matrix
        return int(
            csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        )
    return int(np.asarray(matrix).nbytes)


def _truncate(matrix, eps: float):
    """Zero entries with ``|value| < eps``; returns (matrix, dropped mass).

    The degradation strategies' truncation primitive (the journal
    HeteSim framework's "truncation" quick-computation): bounding the
    magnitude of kept entries bounds fill-in growth along the chain, at
    an accuracy cost equal to the discarded probability mass.
    """
    if sparse.issparse(matrix):
        mask = np.abs(matrix.data) < eps
        if not mask.any():
            return matrix, 0.0
        dropped = float(np.abs(matrix.data[mask]).sum())
        matrix.data[mask] = 0.0
        matrix.eliminate_zeros()
        return matrix, dropped
    mask = np.abs(matrix) < eps
    mask &= matrix != 0
    if not mask.any():
        return matrix, 0.0
    dropped = float(np.abs(matrix[mask]).sum())
    matrix[mask] = 0.0
    return matrix, dropped


def _multiply(a, b):
    """``a @ b`` over any mix of CSR and ndarray, never ``np.matrix``."""
    if sparse.issparse(a) and sparse.issparse(b):
        return (a @ b).tocsr()
    if sparse.issparse(a):
        return np.asarray(a @ b)
    if sparse.issparse(b):
        return np.asarray((b.T @ a.T)).T
    return a @ b


def _as_csr(matrix) -> sparse.csr_matrix:
    if sparse.issparse(matrix):
        return matrix.tocsr()
    return sparse.csr_matrix(matrix)


def _materialise_factor(
    graph: HeteroGraph,
    factor: Factor,
    shared_matrix: Optional[sparse.csr_matrix],
):
    if factor.kind == "transition":
        return factor_matrix(graph, factor.relation, "U")
    if factor.kind == "adjacency":
        return factor_matrix(graph, factor.relation, "W")
    if factor.kind in ("cached", "explicit"):
        return factor.matrix
    if factor.kind == "shared":
        return shared_matrix
    if factor.kind == "shared_T":
        return shared_matrix.T.tocsr()
    raise AssertionError(f"unknown factor kind {factor.kind!r}")


def truncating() -> bool:
    """Whether the ambient execution scope truncates plan products.

    Products computed under truncation (a degraded strategy's
    ``truncate_eps > 0``) are not the exact matrices of any path; the
    cache and the engine memo consult this before storing anything.
    """
    context = current_context()
    return context is not None and context.truncate_eps > 0.0


def execute_plan(
    graph: HeteroGraph,
    plan: PathPlan,
    store: Optional[StoreFn] = None,
    context: Optional[ExecutionContext] = None,
) -> Tuple[sparse.csr_matrix, PlanStats]:
    """Run a schedule and return ``(matrix, stats)``.

    ``store`` is invoked for every step whose :attr:`PlanStep.store_key`
    is set (prefix seeding) and for the plan's leading factor when the
    planner marked it -- the cache passes its own store method here.

    ``context`` overrides the ambient execution context (which is the
    default: anything started inside
    :func:`~repro.runtime.limits.execution_scope` runs under that
    scope's limits, fault plan and truncation threshold).  Enforcement
    is cooperative -- the deadline and budgets are checked between
    steps, never mid-multiplication -- and raises
    :class:`~repro.hin.errors.DeadlineExceededError` /
    :class:`~repro.hin.errors.BudgetExceededError`.
    """
    with trace_span(
        "plan.execute", path=".".join(plan.key)
    ) as plan_span:
        result, stats = _run_plan(graph, plan, store, context)
        plan_span.set(
            steps=len(stats.steps),
            output_nnz=stats.output_nnz,
            ms=round(stats.seconds * 1e3, 3),
        )
        _PLANS.inc()
        return result, stats


def _run_plan(
    graph: HeteroGraph,
    plan: PathPlan,
    store: Optional[StoreFn],
    context: Optional[ExecutionContext],
) -> Tuple[sparse.csr_matrix, PlanStats]:
    started = time.perf_counter()
    if context is None:
        context = current_context()
    tracker = context.tracker if context is not None else None
    faults = context.faults if context is not None else None
    truncate_eps = context.truncate_eps if context is not None else 0.0

    stats = PlanStats(
        key=plan.key,
        prefix_key=plan.prefix_key,
        est_flops=plan.est_flops,
    )
    if tracker is not None:
        tracker.check_deadline()

    shared_matrix: Optional[sparse.csr_matrix] = None
    if plan.shared is not None:
        shared_matrix, shared_stats = execute_plan(
            graph, plan.shared, context=context
        )
        stats.shared = shared_stats

    working = [
        _materialise_factor(graph, factor, shared_matrix)
        for factor in plan.factors
    ]
    labels = [factor.label for factor in plan.factors]

    if store is not None and plan.store_leading_key is not None:
        store(plan.store_leading_key, _as_csr(working[0]))

    for step in plan.steps:
        if faults is not None:
            faults.fire(SITE_EXECUTOR_STEP)
        if tracker is not None:
            tracker.check_deadline()
            if step.densify:
                tracker.check_densify(step.shape[0] * step.shape[1])
        description = (
            f"{labels[step.left_slot]} @ {labels[step.right_slot]}"
        )
        tick = time.perf_counter()
        with trace_span("plan.step", product=description) as step_span:
            product = _multiply(
                working[step.left_slot], working[step.right_slot]
            )
            if step.densify and sparse.issparse(product):
                product = product.toarray()
            if truncate_eps > 0.0:
                product, dropped = _truncate(product, truncate_eps)
                if context is not None:
                    context.truncated_mass += dropped
            if tracker is not None:
                tracker.charge(_nnz(product), _nbytes(product))
                tracker.check_deadline()
            elapsed = time.perf_counter() - tick
            step_span.set(
                nnz=_nnz(product), ms=round(elapsed * 1e3, 3)
            )
        _STEP_SECONDS.observe(elapsed)
        _STEP_NNZ.observe(_nnz(product))
        if store is not None and step.store_key is not None:
            store(step.store_key, _as_csr(product))
        stats.steps.append(
            StepStat(
                description=description,
                shape=tuple(product.shape),
                nnz=_nnz(product),
                est_nnz=step.est_nnz,
                seconds=elapsed,
                densified=not sparse.issparse(product),
                stored_key=step.store_key,
            )
        )
        working[step.left_slot] = product
        labels[step.left_slot] = f"({labels[step.left_slot]} {labels[step.right_slot]})"
        working.pop(step.right_slot)
        labels.pop(step.right_slot)

    assert len(working) == 1
    result = _as_csr(working[0])
    stats.seconds = time.perf_counter() - started
    stats.output_shape = tuple(result.shape)
    stats.output_nnz = int(result.nnz)
    return result, stats


def materialise(
    graph: HeteroGraph,
    path: MetaPath,
    *,
    weights: str = "transition",
    cache=None,
    seed_prefixes: bool = False,
    extra_right: Optional[sparse.spmatrix] = None,
    store: Optional[StoreFn] = None,
) -> Tuple[sparse.csr_matrix, PlanStats]:
    """Plan and execute one path-matrix product in a single call.

    The convenience wrapper every consumer uses: prefix reuse against
    ``cache`` (when given), sparsity-aware ordering, and the CSR/dense
    switch all happen behind this one entry point.
    """
    plan = plan_path(
        graph,
        path,
        weights=weights,
        cache=cache,
        seed_prefixes=seed_prefixes,
        extra_right=extra_right,
    )
    return execute_plan(graph, plan, store=store)


def reach_prob_chain(
    graph: HeteroGraph, path: MetaPath
) -> sparse.csr_matrix:
    """``PM_P`` evaluated in the planned association order.

    Numerically equal to
    :func:`~repro.hin.matrices.reachable_probability_matrix` (matrix
    multiplication is associative; only 1e-12-level rounding differs);
    faster on long paths whose intermediate types differ in size.
    Kept for API compatibility with the old ``repro.core.chain`` module.
    """
    matrix, _ = materialise(graph, path)
    return matrix
