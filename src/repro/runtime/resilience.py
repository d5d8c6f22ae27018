"""Graceful degradation: bounded queries that answer instead of dying.

The paper's §4.6 "quick computation strategies" (off-line
materialisation, truncation, pruning, low-rank approximation) become a
*runtime policy* here: a query runs under
:class:`~repro.runtime.limits.ExecutionLimits`, and when the exact
computation trips a deadline or budget the runtime retries it through a
chain of progressively cheaper strategies --

1. ``exact`` -- the full planned computation (limits enforced);
2. ``truncate`` -- cached-prefix reuse plus light entry truncation
   after every plan step, bounding fill-in growth (limits enforced);
3. ``prune`` -- aggressive truncation plus forward-mass pruning of the
   query distribution (limits enforced);
4. ``lowrank`` -- a rank-``r`` approximation over truncated halves
   (the unenforced floor: always answers);
5. ``truncate-final`` -- unenforced aggressive truncation, reached only
   when the low-rank factorisation is infeasible (tiny matrices).

The caller receives a :class:`DegradedResult` naming the strategy that
answered, the limit that tripped the exact attempt, every attempt made,
and accuracy metadata (truncated mass, dropped forward mass, captured
spectral energy) -- or, with ``on_limit="fail"``, the typed
:class:`~repro.hin.errors.ResourceLimitError` of the first breach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..core.engine import HeteSimEngine
from ..core.hetesim import unit_rows
from ..core.lowrank import LowRankHeteSim
from ..core.measures import HeteSimPrepared, get_measure
from ..core.search import select_top_k
from ..hin.errors import QueryError, ResourceLimitError
from ..hin.graph import HeteroGraph
from ..hin.metapath import MetaPath, PathSpec
from ..obs.metrics import REGISTRY
from ..obs.trace import span as trace_span
from .faults import FaultPlan
from .limits import ExecutionLimits, execution_scope

_ATTEMPTS = REGISTRY.counter(
    "repro_degradation_attempts_total",
    "Degradation-ladder attempts, by strategy and outcome.",
)
_ANSWERS = REGISTRY.counter(
    "repro_degradation_answers_total",
    "Resilient queries answered, by the strategy that produced the value.",
)

__all__ = [
    "Strategy",
    "Attempt",
    "DegradedResult",
    "DEFAULT_POLICY",
    "ResilientRuntime",
]


@dataclass(frozen=True)
class Strategy:
    """One rung of the degradation ladder.

    ``kind`` is ``"halves"`` (score from possibly-truncated half
    matrices) or ``"lowrank"`` (rank-``rank`` factorisation).
    ``truncate_eps`` is the per-step entry-truncation threshold applied
    by the backend; ``prune_mass`` additionally drops that much of the
    query's forward probability mass before scoring.  ``enforced``
    strategies run under the query's limits; unenforced ones are the
    always-answer floor.
    """

    name: str
    kind: str = "halves"
    truncate_eps: float = 0.0
    prune_mass: float = 0.0
    rank: int = 8
    enforced: bool = True

    def __post_init__(self) -> None:
        if self.prune_mass < 0:
            raise QueryError(
                f"prune_mass must be >= 0, got {self.prune_mass}"
            )


#: The default ladder: exact, then §4.6-style truncation, pruning and
#: low-rank approximation, with an unenforced truncation floor so a
#: degraded query always produces an answer.
DEFAULT_POLICY: Tuple[Strategy, ...] = (
    Strategy("exact"),
    Strategy("truncate", truncate_eps=1e-8),
    Strategy("prune", truncate_eps=1e-4, prune_mass=1e-3),
    Strategy("lowrank", kind="lowrank", truncate_eps=1e-4, enforced=False),
    Strategy("truncate-final", truncate_eps=1e-4, enforced=False),
)


@dataclass(frozen=True)
class Attempt:
    """Record of one strategy attempt (successful or tripped)."""

    strategy: str
    error: Optional[str]
    tripped: Optional[str]
    elapsed_ms: float

    @property
    def succeeded(self) -> bool:
        """True when this attempt produced the answer."""
        return self.error is None


@dataclass
class DegradedResult:
    """Outcome of a resilient query.

    Attributes
    ----------
    value:
        The answer: a float for pair queries, a ``(key, score)`` list
        for ranked queries.
    strategy:
        Name of the strategy that produced ``value`` (``"exact"`` when
        nothing degraded).
    degraded:
        True when at least one cheaper fallback was needed.
    tripped:
        The limit name that tripped the first failing attempt
        (``"deadline"``, ``"max_nnz"``, ``"max_bytes"``,
        ``"max_densified_cells"``), or None.
    attempts:
        Every attempt in order, including the successful one.
    accuracy:
        Strategy-specific accuracy metadata: ``truncated_mass`` (total
        entry mass discarded by truncation), ``dropped_forward_mass``
        (query mass removed by pruning), ``captured_energy`` and
        ``rank`` (low-rank strategies).
    """

    value: Any
    strategy: str
    degraded: bool
    tripped: Optional[str]
    attempts: List[Attempt] = field(default_factory=list)
    accuracy: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line provenance rendering (CLI degradation note)."""
        if not self.degraded:
            return "exact (no limits tripped)"
        chain = " -> ".join(
            attempt.strategy
            + ("" if attempt.succeeded else f"[{attempt.tripped}]")
            for attempt in self.attempts
        )
        extras = ", ".join(
            f"{key}={value:.3g}" for key, value in sorted(self.accuracy.items())
        )
        note = f"degraded: tripped {self.tripped}; attempts {chain}"
        if extras:
            note += f"; {extras}"
        return note


def _drop_smallest_mass(
    row: sparse.csr_matrix, mass: float
) -> Tuple[sparse.csr_matrix, float]:
    """Zero a forward row's smallest entries while their sum stays
    under ``mass``; returns the pruned row and the mass dropped.

    Each unit of dropped forward mass moves a raw meeting probability
    by at most itself (backward rows are substochastic), so the raw
    score error is bounded by the mass dropped (§4.6 pruning).
    """
    data = row.data.copy()
    dropped = 0.0
    for index in np.argsort(data, kind="stable"):
        value = float(data[index])
        if dropped + value >= mass:
            break
        dropped += value
        data[index] = 0.0
    pruned = sparse.csr_matrix(
        (data, row.indices.copy(), row.indptr.copy()), shape=row.shape
    )
    pruned.eliminate_zeros()
    return pruned, dropped


class ResilientRuntime:
    """Deadline/budget-aware query runner with graceful degradation.

    Parameters
    ----------
    engine_or_graph:
        A :class:`~repro.core.engine.HeteSimEngine` (its path-matrix
        cache is shared, so exact prefixes materialised before a breach
        speed up the degraded retries) or a bare graph.
    limits:
        The :class:`~repro.runtime.limits.ExecutionLimits` each
        *enforced* attempt runs under (each attempt starts a fresh
        tracker, so the deadline is per attempt).  None = unlimited.
    on_limit:
        ``"degrade"`` (default) walks the policy ladder on breach;
        ``"fail"`` re-raises the first typed limit error.
    policy:
        Custom strategy ladder; defaults to :data:`DEFAULT_POLICY`.
    faults:
        Optional deterministic :class:`~repro.runtime.faults.FaultPlan`
        active for every attempt (testing hook).

    Examples
    --------
    >>> runtime = engine.runtime(                       # doctest: +SKIP
    ...     ExecutionLimits(deadline_ms=50))
    >>> result = runtime.top_k("Tom", "APVC", k=5)      # doctest: +SKIP
    >>> result.strategy, result.tripped                 # doctest: +SKIP
    ('truncate', 'deadline')
    """

    def __init__(
        self,
        engine_or_graph,
        limits: Optional[ExecutionLimits] = None,
        on_limit: str = "degrade",
        policy: Optional[Sequence[Strategy]] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if on_limit not in ("degrade", "fail"):
            raise QueryError(
                f"on_limit must be 'degrade' or 'fail', got {on_limit!r}"
            )
        if isinstance(engine_or_graph, HeteSimEngine):
            self.engine = engine_or_graph
        elif isinstance(engine_or_graph, HeteroGraph):
            self.engine = HeteSimEngine(engine_or_graph)
        else:
            raise QueryError(
                "expected a HeteSimEngine or HeteroGraph, got "
                f"{type(engine_or_graph).__name__}"
            )
        self.graph = self.engine.graph
        self.limits = limits
        self.on_limit = on_limit
        self.policy: Tuple[Strategy, ...] = tuple(
            policy if policy is not None else DEFAULT_POLICY
        )
        if not self.policy:
            raise QueryError("policy must contain at least one strategy")
        if (
            limits is not None
            and on_limit == "degrade"
            and self.policy[-1].enforced
        ):
            raise QueryError(
                "the last policy strategy must be unenforced so a "
                "degraded query always answers"
            )
        self.faults = faults

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    def relevance(
        self,
        source_key: str,
        target_key: str,
        path: PathSpec,
        normalized: bool = True,
    ) -> DegradedResult:
        """HeteSim of one pair under limits; value is a float."""
        meta = self.engine.path(path)

        def evaluate(strategy: Strategy) -> Tuple[float, Dict[str, float]]:
            if strategy.kind == "lowrank":
                approx, accuracy = self._lowrank(meta, strategy)
                return (
                    approx.relevance(
                        source_key, target_key, normalized=normalized
                    ),
                    accuracy,
                )
            prepared, row, accuracy = self._prepared(
                meta, source_key, strategy
            )
            col = prepared.ctx.node_index(meta.target_type.name, target_key)
            return (
                prepared.score_pair(row, col, normalized=normalized),
                accuracy,
            )

        return self._run(evaluate)

    def top_k(
        self,
        source_key: str,
        path: PathSpec,
        k: int = 10,
        normalized: bool = True,
    ) -> DegradedResult:
        """Ranked top-k targets under limits; value is a (key, score) list.

        ``k`` clamps like a slice: ``k <= 0`` short-circuits to an
        exact empty ranking without touching the ladder (no work, so
        nothing to degrade), oversized ``k`` returns the full ranking.
        """
        if k < 1:
            return DegradedResult(
                value=[], strategy="exact", degraded=False, tripped=None
            )
        meta = self.engine.path(path)

        def evaluate(
            strategy: Strategy,
        ) -> Tuple[List[Tuple[str, float]], Dict[str, float]]:
            if strategy.kind == "lowrank":
                approx, accuracy = self._lowrank(meta, strategy)
                return (
                    approx.top_k(source_key, k=k, normalized=normalized),
                    accuracy,
                )
            prepared, row, accuracy = self._prepared(
                meta, source_key, strategy
            )
            scores = prepared.score_vector(row, normalized=normalized)
            return (
                select_top_k(scores, prepared.target_keys(), k),
                accuracy,
            )

        return self._run(evaluate)

    # ------------------------------------------------------------------
    # the degradation loop
    # ------------------------------------------------------------------
    def _run(
        self, evaluate: Callable[[Strategy], Tuple[Any, Dict[str, float]]]
    ) -> DegradedResult:
        attempts: List[Attempt] = []
        tripped: Optional[str] = None
        last_error: Optional[ResourceLimitError] = None
        for strategy in self.policy:
            tracker = (
                self.limits.tracker()
                if (self.limits is not None and strategy.enforced)
                else None
            )
            started = perf_counter()
            with trace_span(
                "resilience.attempt",
                strategy=strategy.name,
                enforced=strategy.enforced,
            ) as attempt_span:
                try:
                    with execution_scope(
                        tracker=tracker,
                        faults=self.faults,
                        truncate_eps=strategy.truncate_eps,
                    ) as context:
                        value, accuracy = evaluate(strategy)
                except ResourceLimitError as exc:
                    elapsed_ms = (perf_counter() - started) * 1e3
                    attempts.append(
                        Attempt(
                            strategy=strategy.name,
                            error=type(exc).__name__,
                            tripped=exc.limit,
                            elapsed_ms=elapsed_ms,
                        )
                    )
                    _ATTEMPTS.labels(
                        strategy=strategy.name, outcome="tripped"
                    ).inc()
                    attempt_span.set(outcome="tripped", limit=exc.limit)
                    if tripped is None:
                        tripped = exc.limit
                    last_error = exc
                    if self.on_limit == "fail":
                        raise
                    continue
                except QueryError:
                    if strategy.kind == "lowrank":
                        # Tiny half matrices cannot be factored; fall
                        # through to the unenforced truncation floor.
                        elapsed_ms = (perf_counter() - started) * 1e3
                        attempts.append(
                            Attempt(
                                strategy=strategy.name,
                                error="QueryError",
                                tripped=None,
                                elapsed_ms=elapsed_ms,
                            )
                        )
                        _ATTEMPTS.labels(
                            strategy=strategy.name, outcome="infeasible"
                        ).inc()
                        attempt_span.set(outcome="infeasible")
                        continue
                    raise
                elapsed_ms = (perf_counter() - started) * 1e3
                attempt_span.set(outcome="ok")
            _ATTEMPTS.labels(strategy=strategy.name, outcome="ok").inc()
            _ANSWERS.labels(strategy=strategy.name).inc()
            if context.truncated_mass or strategy.truncate_eps:
                accuracy = dict(accuracy)
                accuracy["truncated_mass"] = context.truncated_mass
            attempts.append(
                Attempt(
                    strategy=strategy.name,
                    error=None,
                    tripped=None,
                    elapsed_ms=elapsed_ms,
                )
            )
            return DegradedResult(
                value=value,
                strategy=strategy.name,
                degraded=len(attempts) > 1,
                tripped=tripped,
                attempts=attempts,
                accuracy=accuracy,
            )
        # Only reachable when every strategy is enforced (custom policy
        # without a floor, running without limits never trips).
        assert last_error is not None
        raise last_error

    # ------------------------------------------------------------------
    # rung helpers
    # ------------------------------------------------------------------
    def _prepared(
        self, meta: MetaPath, source_key: str, strategy: Strategy
    ) -> Tuple[HeteSimPrepared, int, Dict[str, float]]:
        """The HeteSim prepared state a halves rung scores from.

        Runs inside the rung's execution scope, so the engine memo
        serves the exact form when it has it and otherwise builds one
        under the rung's truncation (never memoised or cached).  The
        prune rung then scores a single pruned forward row instead of
        the source's full one: the raw row is rebuilt from its unit row
        and norm, pruned in raw probability mass, and scaled back to
        unit norm.
        """
        ctx = self.engine.measures
        prepared = get_measure("hetesim").prepare(ctx, meta)
        row = ctx.node_index(meta.source_type.name, source_key)
        if strategy.prune_mass <= 0:
            return prepared, row, {}
        forward, dropped = _drop_smallest_mass(
            prepared.left.getrow(row) * prepared.left_norms[row],
            strategy.prune_mass,
        )
        unit_forward, forward_norm = unit_rows(forward)
        pruned = HeteSimPrepared(
            ctx,
            prepared.shape,
            (unit_forward, prepared.right, forward_norm,
             prepared.right_norms),
        )
        return pruned, 0, {"dropped_forward_mass": dropped}

    def _lowrank(
        self, meta: MetaPath, strategy: Strategy
    ) -> Tuple[LowRankHeteSim, Dict[str, float]]:
        approx = LowRankHeteSim(self.graph, meta, rank=strategy.rank)
        accuracy = {
            "rank": float(min(approx.rank_left, approx.rank_right)),
            "captured_energy": approx.captured_energy,
        }
        return approx, accuracy
