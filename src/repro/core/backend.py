"""Path-matrix materialisation: the §4.6 compute layer.

Every reachable-probability or path-count matrix in this codebase is a
chain product ``M_1 M_2 ... M_l`` of per-relation factors, and
:func:`materialise` is the one place that evaluates one.  It orders the
chain with a sparsity-aware matrix-chain DP (:func:`sparse_chain_order`,
whose cost is estimated *nonzero* work rather than dense dimensions)
and evaluates it by recursion over the DP's split table.  The tree
depends only on the path and the graph's type sizes and edge counts,
so a path matrix is the same bits whatever a
:class:`~repro.core.cache.PathMatrixCache` held when it was built: a
cached prefix replaces only the intermediate the tree forms anyway.

It is also the *cooperative enforcement point* of the resilience layer
(:mod:`repro.runtime`): between products it consults the ambient
:class:`~repro.runtime.limits.ExecutionContext` (installed by
:func:`~repro.runtime.limits.execution_scope`) to check wall-clock
deadlines and nnz/byte budgets, to fire deterministic test faults, and
to apply entry truncation when a degraded strategy asks for it.
Outside any scope the checks are a single ``None`` test per product.

Each call is observed through :mod:`repro.obs`: one ``plan.execute``
span with a ``plan.step`` child per product, and the ``repro_plan_*``
metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..hin.matrices import factor_matrix
from ..hin.metapath import MetaPath
from ..obs.metrics import NNZ_BUCKETS, REGISTRY, SECONDS_BUCKETS
from ..obs.trace import span as trace_span
from ..runtime.faults import SITE_EXECUTOR_STEP
from ..runtime.limits import current_context

_PLANS = REGISTRY.counter(
    "repro_plan_executions_total", "Path-matrix materialisations run."
)
_STEP_SECONDS = REGISTRY.histogram(
    "repro_plan_step_seconds",
    "Wall time of one chain-product step.",
    buckets=SECONDS_BUCKETS,
)
_STEP_NNZ = REGISTRY.histogram(
    "repro_plan_step_nnz",
    "Nonzeros of one chain-product step.",
    buckets=NNZ_BUCKETS,
)

__all__ = [
    "DENSIFY_THRESHOLD",
    "DENSE_CELL_CAP",
    "estimate_product",
    "sparse_chain_order",
    "materialise",
    "truncating",
]

#: Estimated fill-in (nnz / cells) above which an intermediate is
#: evaluated densely -- past this point CSR bookkeeping costs more than
#: the dense kernel.
DENSIFY_THRESHOLD = 0.25

#: Never densify an intermediate with more cells than this (8 MiB of
#: float64), however full it is predicted to be.
DENSE_CELL_CAP = 1 << 20

#: Factor source per ``weights`` value: Definition 8's row-normalised
#: ``U`` (reachable probabilities) or the raw adjacency ``W`` (counts).
_FACTOR_KINDS = {"transition": "U", "adjacency": "W"}


# ----------------------------------------------------------------------
# sparsity-aware chain ordering
# ----------------------------------------------------------------------
def estimate_product(
    shape_a: Tuple[int, int],
    nnz_a: float,
    shape_b: Tuple[int, int],
    nnz_b: float,
) -> Tuple[float, float]:
    """``(flops, nnz)`` estimate for one sparse product ``A @ B``.

    Flops is the expected multiply-add count under uniformly scattered
    nonzeros: each of ``A``'s nonzeros meets ``nnz_b / k`` nonzeros in
    the matching row of ``B``.  The output nnz estimate treats each of
    the ``m * n`` cells as hit independently through ``k`` channels with
    probability ``density_a * density_b`` each -- the standard
    Erdos-Renyi fill-in estimate; exact for the expectation, and close
    enough in practice to order a chain.
    """
    m, k = shape_a
    _, n = shape_b
    if m == 0 or k == 0 or n == 0 or nnz_a <= 0 or nnz_b <= 0:
        return 0.0, 0.0
    flops = nnz_a * (nnz_b / k)
    density_a = min(1.0, nnz_a / (m * k))
    density_b = min(1.0, nnz_b / (k * n))
    fill = -np.expm1(k * np.log1p(-min(1.0 - 1e-12, density_a * density_b)))
    return flops, fill * m * n


def sparse_chain_order(
    shapes: Sequence[Tuple[int, int]],
    nnzs: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Association order minimising *estimated sparse work*.

    The matrix-chain-order DP over per-factor shapes and nonzero
    counts.  Returns ``(split, nnz)``: the product of factors ``i..j``
    is ``(i..split[i][j]) @ (split[i][j]+1..j)``, and ``nnz[i][j]`` is
    its estimated nonzero count.  With fully dense factors the cost is
    the classic dense one (``m * k * n`` per product).

    Ties (and near-ties within 1%) prefer the left-associative split so
    that intermediates remain path *prefixes* -- prefix-shaped
    intermediates are the reusable ones under §4.6 partial-path
    concatenation.
    """
    n = len(shapes)
    if n < 1:
        raise QueryError("chain needs at least one matrix")

    cost = np.zeros((n, n))
    nnz = np.zeros((n, n))
    split = np.zeros((n, n), dtype=int)
    for i in range(n):
        nnz[i][i] = float(nnzs[i])
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            best = np.inf
            best_nnz = 0.0
            # Iterate k from the left-associative split downwards and
            # require a strict (>1%) improvement to move away from it,
            # so near-ties keep prefix-shaped intermediates.
            for k in range(j - 1, i - 1, -1):
                left_shape = (shapes[i][0], shapes[k][1])
                right_shape = (shapes[k + 1][0], shapes[j][1])
                flops, out_nnz = estimate_product(
                    left_shape, nnz[i][k], right_shape, nnz[k + 1][j]
                )
                candidate = cost[i][k] + cost[k + 1][j] + flops
                if candidate < best * (1.0 - 1e-2) or best == np.inf:
                    best = candidate
                    best_nnz = out_nnz
                    split[i][j] = k
            cost[i][j] = best
            nnz[i][j] = best_nnz
    return split, nnz


# ----------------------------------------------------------------------
# products
# ----------------------------------------------------------------------
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


def truncating() -> bool:
    """Whether the ambient execution scope truncates chain products.

    Products computed under truncation (a degraded strategy's
    ``truncate_eps > 0``) are not the exact matrices of any path; the
    cache consults this before storing anything or sharing a build.
    """
    context = current_context()
    return context is not None and context.truncate_eps > 0.0


class _Run:
    """One materialisation's ambient checks and product count."""

    def __init__(self) -> None:
        self.context = current_context()
        self.tracker = self.context and self.context.tracker
        self.faults = self.context and self.context.faults
        self.steps = 0

    def check_deadline(self) -> None:
        if self.tracker is not None:
            self.tracker.check_deadline()

    def check_densify(self, cells: int) -> None:
        if self.tracker is not None:
            self.tracker.check_densify(cells)

    def product(self, left, right, densify: bool, description: str):
        """``left @ right`` with the limit, fault and truncation checks."""
        if self.faults is not None:
            self.faults.fire(SITE_EXECUTOR_STEP)
        self.check_deadline()
        if densify:
            self.check_densify(left.shape[0] * right.shape[1])
        tick = time.perf_counter()
        with trace_span("plan.step", product=description) as step_span:
            product = _multiply(left, right)
            if densify and sparse.issparse(product):
                product = product.toarray()
            context = self.context
            if context is not None and context.truncate_eps > 0.0:
                product, dropped = _truncate(product, context.truncate_eps)
                context.truncated_mass += dropped
            nnz = _nnz(product)
            if self.tracker is not None:
                self.tracker.charge(nnz, _nbytes(product))
                self.tracker.check_deadline()
            elapsed = time.perf_counter() - tick
            step_span.set(nnz=nnz, ms=round(elapsed * 1e3, 3))
            if not sparse.issparse(product):
                step_span.set(dense=True)
        _STEP_SECONDS.observe(elapsed)
        _STEP_NNZ.observe(nnz)
        self.steps += 1
        return product


# ----------------------------------------------------------------------
# chain evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Factor:
    """One leaf of a chain: its name, size estimates and builder."""

    label: str
    shape: Tuple[int, int]
    nnz: float
    build: Callable[[], object]


class _Chain:
    """A chain product evaluated by recursion over its split table.

    With a ``cache``, the prefix-shaped nodes ``(0, j)`` over the path's
    relations are where cached entries are read and formed products
    stored (tagged from ``signature``, the path's relation versions
    read before any factor was built; None stores nothing).
    """

    def __init__(
        self,
        run: _Run,
        factors: List[_Factor],
        key: Tuple[str, ...] = (),
        cache=None,
        signature: Optional[Tuple[int, ...]] = None,
    ) -> None:
        self.run = run
        self.factors = factors
        self.key = key
        self.cache = cache
        self.signature = signature
        self.split, self.est_nnz = sparse_chain_order(
            [factor.shape for factor in factors],
            [factor.nnz for factor in factors],
        )

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.factors[0].shape[0], self.factors[-1].shape[1])

    def densify(self, i: int, j: int) -> bool:
        """Whether the product of factors ``i..j`` is made dense."""
        cells = self.factors[i].shape[0] * self.factors[j].shape[1]
        return bool(
            0 < cells <= DENSE_CELL_CAP
            and self.est_nnz[i][j] / cells > DENSIFY_THRESHOLD
        )

    def dense(self, i: int, j: int) -> bool:
        """Whether evaluating ``i..j`` from its factors leaves it dense:
        densified there, or a product with a dense operand."""
        if i == j:
            return False
        k = int(self.split[i][j])
        return self.densify(i, j) or self.dense(i, k) or self.dense(k + 1, j)

    def evaluate(self, i: int, j: int):
        """``(product of factors i..j, its label)``; the root as CSR."""
        root = i == 0 and j == len(self.factors) - 1
        prefix = None
        if self.cache is not None and i == 0 and j < len(self.key):
            prefix = self.key[: j + 1]
            cached = self.cache.lookup(prefix)
            if cached is not None:
                # In the form the cache-free tree gives this node, so
                # the products above it see the same operands.
                if not root and self.dense(i, j):
                    self.run.check_densify(cached.shape[0] * cached.shape[1])
                    cached = cached.toarray()
                return cached, f"cached[{'.'.join(prefix)}]"
        if i == j:
            matrix, label = self.factors[i].build(), self.factors[i].label
        else:
            k = int(self.split[i][j])
            left, left_label = self.evaluate(i, k)
            right, right_label = self.evaluate(k + 1, j)
            matrix = self.run.product(
                left, right, self.densify(i, j), f"{left_label} @ {right_label}"
            )
            label = f"({left_label} {right_label})"
        if root:
            # Converted once: the caller and the cache share this CSR
            # (``_as_csr`` returns a CSR operand itself).
            matrix = _as_csr(matrix)
        if prefix is not None and self.signature is not None:
            self.cache.store(prefix, _as_csr(matrix), self.signature[: j + 1])
        return matrix, label

    def result(self) -> sparse.csr_matrix:
        return self.evaluate(0, len(self.factors) - 1)[0]


def _relation_factor(graph: HeteroGraph, relation, kind: str) -> _Factor:
    return _Factor(
        label=f"{kind}[{relation.name}]",
        shape=(
            graph.num_nodes(relation.source.name),
            graph.num_nodes(relation.target.name),
        ),
        nnz=float(graph.num_edges(relation.name)),
        build=lambda: factor_matrix(graph, relation.name, kind),
    )


def _count_chain(run: _Run, graph: HeteroGraph, relations) -> _Chain:
    """The adjacency chain of ``relations``, its mirrored half computed
    once.

    Valid only for the unnormalised chain, where reversal is plain
    transposition (``W_{P^-1} = W_P'``): when the last ``m`` relations
    invert the first ``m``, the chain is ``H ... H'`` for the half's
    product ``H``.  Row-normalised ``U`` chains do not transpose into
    each other, so probability chains never take this form.
    """
    n = len(relations)
    m = 0
    while m < n // 2 and relations[n - 1 - m] == relations[m].inverse():
        m += 1
    factors = [_relation_factor(graph, relation, "W") for relation in relations]
    if m:
        half = _count_chain(run, graph, relations[:m])
        shared: List[sparse.csr_matrix] = []

        def build_half() -> sparse.csr_matrix:
            if not shared:
                shared.append(half.result())
            return shared[0]

        rows, cols = half.shape
        nnz = float(half.est_nnz[0][len(half.factors) - 1])
        factors = [
            _Factor("shared", (rows, cols), nnz, build_half),
            *factors[m: n - m],
            _Factor("shared'", (cols, rows), nnz, lambda: build_half().T.tocsr()),
        ]
    return _Chain(run, factors)


def materialise(
    graph: HeteroGraph,
    path: MetaPath,
    *,
    weights: str = "transition",
    cache=None,
    extra_right: Optional[sparse.spmatrix] = None,
) -> sparse.csr_matrix:
    """The chain product of ``path``'s factors, as CSR.

    Parameters
    ----------
    graph:
        The network.
    path:
        The meta path whose chain product is wanted.
    weights:
        ``"transition"`` for reachable probabilities (``U`` factors,
        Definition 9) or ``"adjacency"`` for unnormalised path counts
        (``W`` factors, PathSim's ``M``; a mirrored half is computed
        once).
    cache:
        An optional :class:`~repro.core.cache.PathMatrixCache`, for
        transition weights only.  Where
        the tree forms a path prefix, a fresh cached entry for it is
        used instead, and a product formed there is stored (the full
        path's own included), unless the ambient scope truncates.
    extra_right:
        Optional explicit factor appended after the path's relations
        (the edge-object hop of odd paths).

    The association order comes from :func:`sparse_chain_order` over
    the factors' shapes and edge counts alone, so the result is the
    same bits whatever ``cache`` holds.
    """
    kind = _FACTOR_KINDS.get(weights)
    if kind is None:
        raise QueryError(
            f"weights must be 'transition' or 'adjacency', got {weights!r}"
        )
    if kind == "W" and cache is not None:
        raise QueryError(
            "a PathMatrixCache holds transition products; count chains "
            "are materialised without one"
        )
    key = tuple(relation.name for relation in path.relations)
    # Read before the first factor is built: the graph publishes edge
    # data before bumping versions, so a stored entry's data can only
    # be newer than its tag (recomputed on lookup), never older.
    signature = (
        graph.relations_signature(key)
        if cache is not None and not truncating()
        else None
    )
    with trace_span("plan.execute", path=".".join(key)) as plan_span:
        started = time.perf_counter()
        run = _Run()
        run.check_deadline()
        if kind == "W" and extra_right is None:
            chain = _count_chain(run, graph, path.relations)
        else:
            factors = [
                _relation_factor(graph, relation, kind)
                for relation in path.relations
            ]
            if extra_right is not None:
                factors.append(
                    _Factor(
                        "explicit",
                        tuple(extra_right.shape),
                        float(_nnz(extra_right)),
                        lambda: extra_right,
                    )
                )
            chain = _Chain(run, factors, key, cache, signature)
        result = chain.result()
        plan_span.set(
            steps=run.steps,
            output_nnz=int(result.nnz),
            ms=round((time.perf_counter() - started) * 1e3, 3),
        )
    _PLANS.inc()
    return result
