"""Process-parallel execution tier: true multi-core for CPU-bound GEMM.

The thread :class:`~repro.serve.dispatch.Dispatcher` relies on scipy
releasing the GIL inside sparse products, but the Python glue around
each product (slicing, norm handling, memo bookkeeping) still
serialises -- ``BENCH_serve.json`` recorded a workers=4 *slowdown* on
pure materialisation.  This module adds the tier that actually escapes
the GIL:

* :class:`ProcessDispatcher` -- a seeded, deterministic
  :class:`~concurrent.futures.ProcessPoolExecutor` front.  Workers are
  bootstrapped once with the graph (inherited copy-on-write under the
  default ``fork`` start method; pickled -- see
  ``HeteroGraph.__getstate__`` -- under ``spawn``) and build a
  worker-local :class:`~repro.core.engine.HeteSimEngine` labelled
  ``engine="worker"``.
* **Task envelopes** -- every task returns a :class:`_TaskEnvelope`
  carrying its result *or* exception plus the worker-side registry
  delta, tracker charges, fault-plan progress and recorded spans, so
  observability and provenance survive the boundary even when the task
  raises.  The parent merges each envelope before re-raising.
* **Context propagation** -- the ambient
  :class:`~repro.runtime.limits.ExecutionContext` crosses the boundary
  via :func:`~repro.runtime.limits.export_context` /
  :func:`~repro.runtime.limits.adopt_exported_context`: deadlines keep
  the parent's clock origin (``CLOCK_MONOTONIC`` is system-wide),
  budgets continue from the bytes already charged, and fault plans
  continue the parent's per-site occurrence counts.  When a tracker or
  fault plan is ambient, tasks dispatch **sequentially** (absorbing
  each task's progress before exporting for the next), so cumulative
  budgets and ``(site, occurrence)`` matching stay byte-identical to
  in-process execution; the unconstrained fast path fans out fully.
* **Shared-memory data plane** -- matrices cross via
  :mod:`repro.core.shm` manifests, never pickles: the parent publishes
  a group's halves once and every shard worker reattaches zero-copy.

``resolve_backend`` is the ``backend="auto"`` heuristic
:meth:`~repro.core.engine.HeteSimEngine.warm` and
:func:`~repro.serve.batch.serve_batch` default to: the process tier is
selected only when the host has real parallelism (``usable_cpus() >=
2`` -- affinity clamped by the cgroup CPU quota, so a containerised
single-core host is not mistaken for a 4-core one) and the graph is
large enough for the fork/publish overhead to pay off.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..hin.errors import QueryError
from ..hin.graph import HeteroGraph
from ..obs import metrics as obs_metrics
from ..obs.trace import TRACER, Span, current_span, span as trace_span
from ..runtime.faults import FaultPlan
from ..runtime.limits import (
    ContextExport,
    adopt_exported_context,
    current_context,
    export_context,
)
from ..core.shm import (
    HalvesManifest,
    ShmLease,
    attach_halves,
    open_segment,
    publish_halves,
)

__all__ = [
    "ProcessDispatcher",
    "usable_cpus",
    "graph_work_nnz",
    "resolve_backend",
    "warm_via_processes",
    "score_groups_via_processes",
    "PROCESS_MIN_EDGES",
]

#: Below this many graph edges the auto heuristic stays on threads:
#: fork + shared-memory publication costs milliseconds, which only a
#: GEMM of real size amortises.
PROCESS_MIN_EDGES = 20_000

_PROC_TASKS = obs_metrics.REGISTRY.counter(
    "repro_procs_tasks_total",
    "Tasks executed by the process tier, by kind.",
)
_PROC_TASK_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_procs_task_seconds",
    "Wall time of one process-tier task, parent-observed.",
    buckets=obs_metrics.SECONDS_BUCKETS,
)


# ----------------------------------------------------------------------
# host introspection / backend resolution
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    """CPUs this process can actually burn in parallel.

    Scheduler affinity, clamped by the cgroup-v2 CPU quota when one is
    set: a container pinned to one core frequently still *sees* every
    host CPU in its affinity mask, and sizing a process pool off that
    number buys pure overhead.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    try:
        with open("/sys/fs/cgroup/cpu.max", "r", encoding="ascii") as fh:
            quota_text, period_text = fh.read().split()[:2]
        if quota_text != "max":
            cpus = min(
                cpus, max(1, int(quota_text) // int(period_text))
            )
    except (OSError, ValueError, IndexError):
        pass
    return max(1, cpus)


def graph_work_nnz(graph: HeteroGraph) -> int:
    """Total edges across all relations -- the auto heuristic's proxy
    for how much GEMM work a materialisation over ``graph`` implies."""
    return sum(
        graph.num_edges(relation.name)
        for relation in graph.schema.relations
    )


def resolve_backend(
    backend: str,
    workers: int,
    items: int,
    work_nnz: int,
    prefer_thread: bool = False,
) -> str:
    """Resolve ``"auto"`` to the tier that will actually be faster.

    Explicit ``"thread"`` / ``"process"`` pass through untouched (the
    process tier is always *correct*, just not always a win).  Auto
    picks processes only when every one of these holds:

    * more than one worker is requested and there is more than one
      independent item to spread;
    * the host has at least two usable CPUs (quota-aware, see
      :func:`usable_cpus`) -- on a single-core host a process pool is
      the thread dispatcher's 0.86x regression with extra fork cost;
    * the graph carries at least :data:`PROCESS_MIN_EDGES` edges;
    * the caller did not flag a thread-affine follow-up
      (``prefer_thread`` -- e.g. warm-with-store, whose persistence
      reads the parent cache only the thread tier populates).
    """
    if backend not in ("auto", "thread", "process"):
        raise QueryError(
            f"unknown backend {backend!r} "
            "(expected 'auto', 'thread' or 'process')"
        )
    if backend != "auto":
        return backend
    if workers < 2 or items < 2 or prefer_thread:
        return "thread"
    if usable_cpus() < 2:
        return "thread"
    if work_nnz < PROCESS_MIN_EDGES:
        return "thread"
    return "process"


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_WORKER_ENGINE = None


def _bootstrap_worker(graph: HeteroGraph) -> None:
    """Pool initializer: build the worker-local engine exactly once.

    The fixed ``obs_label="worker"`` keeps the merged registry's label
    cardinality bounded no matter how many pools and workers a process
    tree spawns.
    """
    global _WORKER_ENGINE
    from ..core.engine import HeteSimEngine

    _WORKER_ENGINE = HeteSimEngine(graph, obs_label="worker")


def _require_worker_engine():
    if _WORKER_ENGINE is None:
        raise QueryError(
            "process-tier task ran outside a bootstrapped worker"
        )
    return _WORKER_ENGINE


def _warm_task(path_code: str) -> HalvesManifest:
    """Materialise one path's halves and publish them for the parent.

    Runs under the adopted execution context, so the backend's
    ``executor.step`` fault sites and deadline/budget checks fire here,
    in the worker, with parent-continued provenance.  The published
    segments are handed off un-unlinked; the parent (the manifest
    holder) attaches, copies, and destroys them.
    """
    engine = _require_worker_engine()
    halves = engine.halves(engine.path(path_code))
    lease = ShmLease(owner=True)
    try:
        manifest = publish_halves(halves, lease)
    except BaseException:
        lease.release()
        raise
    lease.handoff()
    return manifest


def _score_shard_task(
    payload: Tuple[HalvesManifest, Sequence[int], Tuple[bool, ...]],
) -> Tuple[Dict[bool, np.ndarray], int]:
    """Score one row shard against published halves.

    Reattaches the halves zero-copy and scores them through
    :meth:`~repro.core.measures.hetesim.HeteSimPrepared.score_rows`,
    the code the in-process tier runs (bit-identical by row
    independence of CSR matmul; one GEMM serves every flag), and
    returns dense blocks -- plain arrays, safe to pickle back after the
    shared mappings close.
    """
    from ..core.measures.hetesim import HeteSimPrepared

    manifest, rows, flags = payload
    with ShmLease(owner=False) as lease:
        # A shard only scores rows, so it needs no measure context.
        prepared = HeteSimPrepared(
            None, None, attach_halves(manifest, lease)
        )
        blocks = {
            flag: prepared.score_rows(rows, normalized=flag)
            for flag in flags
        }
    return blocks, prepared.last_block_nnz


_TASKS: Dict[str, Callable] = {
    "warm": _warm_task,
    "score_shard": _score_shard_task,
}


@dataclass
class _TaskEnvelope:
    """Everything one worker task sends home.

    ``payload`` is the task's return value when ``ok``, else the
    exception it raised (the typed errors define ``__reduce__``, so
    they cross the pickle boundary intact).  The remaining fields are
    the worker-side state the parent must merge *regardless of
    outcome*: a failed task's limit trips, fired faults and metrics
    still happened.
    """

    ok: bool
    payload: object
    obs_delta: Dict[str, Dict[str, object]]
    tracker_delta: Tuple[int, int, int] = (0, 0, 0)
    truncated_mass: float = 0.0
    fault_counters: Dict[str, int] = field(default_factory=dict)
    fault_fired: List[Tuple[str, int, str]] = field(
        default_factory=list
    )
    span: Optional[Dict[str, object]] = None


def _run_task(
    kind: str,
    payload: object,
    export: Optional[ContextExport],
    trace_enabled: bool,
) -> _TaskEnvelope:
    """Worker-side task harness: adopt context, run, envelope the world."""
    before = obs_metrics.export_state()
    if trace_enabled:
        TRACER.enable()
        TRACER.reset()
    ok, result = True, None
    context = None
    try:
        with adopt_exported_context(export) as context:
            with trace_span(f"procs.{kind}", pid=os.getpid()):
                result = _TASKS[kind](payload)
    except BaseException as exc:
        ok, result = False, exc
    tracker_delta = (0, 0, 0)
    truncated_mass = 0.0
    fault_counters: Dict[str, int] = {}
    fault_fired: List[Tuple[str, int, str]] = []
    if context is not None:
        tracker = context.tracker
        if tracker is not None and export is not None:
            tracker_delta = (
                tracker.nnz_charged - export.nnz_charged,
                tracker.bytes_charged - export.bytes_charged,
                tracker.steps_executed,
            )
        if isinstance(context.faults, FaultPlan):
            fault_counters = context.faults.export().counters
            fault_fired = list(context.faults.fired)
        truncated_mass = context.truncated_mass
    span_dict = None
    if trace_enabled and TRACER.roots:
        span_dict = TRACER.roots[-1].to_dict()
        TRACER.reset()
    return _TaskEnvelope(
        ok=ok,
        payload=result,
        obs_delta=obs_metrics.diff_states(
            obs_metrics.export_state(), before
        ),
        tracker_delta=tracker_delta,
        truncated_mass=truncated_mass,
        fault_counters=fault_counters,
        fault_fired=fault_fired,
        span=span_dict,
    )


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ProcessDispatcher:
    """Run ``(kind, payload)`` tasks on a bootstrapped process pool.

    Mirrors the thread :class:`~repro.serve.dispatch.Dispatcher`
    contract -- input order preserved, the first failure re-raised in
    the caller, ambient limits/faults/spans kept coherent -- across a
    process boundary.  Deterministic by construction: results are
    collected in submission order, and contextful runs (an ambient
    tracker or fault plan) dispatch one task at a time so provenance
    matches in-process execution exactly.

    The pool is created lazily on first use and must be closed
    (``with`` or :meth:`close`); workers persist across calls, so the
    per-task cost after the first is pickle + envelope, not fork.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.graph = graph
        if start_method is None:
            start_method = (
                "fork"
                if "fork" in multiprocessing.get_all_start_methods()
                else "spawn"
            )
        self._mp_context = multiprocessing.get_context(start_method)
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool uses."""
        return self._mp_context.get_start_method()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=self._mp_context,
                initializer=_bootstrap_worker,
                initargs=(self.graph,),
            )
        return self._pool

    def map(
        self,
        tasks: Sequence[Tuple[str, object]],
        cleanup: Optional[Callable[[object], None]] = None,
    ) -> List[object]:
        """Run every task; return results in input order.

        On failure the first exception re-raises *after* every
        completed envelope has been merged (observability is never
        dropped); ``cleanup`` then runs on each successful result so
        callers can reclaim resources (e.g. unlink worker-published
        segments) that the raised error orphans.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        context = current_context()
        sequential = context is not None and (
            context.tracker is not None or context.faults is not None
        )
        trace_enabled = TRACER.enabled
        pool = self._ensure_pool()
        envelopes: List[_TaskEnvelope] = []
        if sequential:
            for kind, payload in tasks:
                envelope = self._dispatch_one(
                    pool, kind, payload, context, trace_enabled
                )
                envelopes.append(envelope)
                if not envelope.ok:
                    break
        else:
            export = export_context(context)
            tick = time.perf_counter()
            futures = [
                pool.submit(
                    _run_task, kind, payload, export, trace_enabled
                )
                for kind, payload in tasks
            ]
            for (kind, _), future in zip(tasks, futures):
                envelope = future.result()
                self._absorb(context, kind, envelope, trace_enabled)
                _PROC_TASK_SECONDS.labels(kind=kind).observe(
                    time.perf_counter() - tick
                )
                envelopes.append(envelope)

        results: List[object] = []
        first_error: Optional[BaseException] = None
        for envelope in envelopes:
            if envelope.ok:
                results.append(envelope.payload)
            elif first_error is None:
                first_error = envelope.payload
        if first_error is not None:
            if cleanup is not None:
                for result in results:
                    cleanup(result)
            raise first_error
        return results

    def _dispatch_one(
        self, pool, kind, payload, context, trace_enabled
    ) -> _TaskEnvelope:
        """One sequential round trip: fresh export, run, absorb.

        Re-exporting per task is what carries the previous task's
        charges and fault occurrences into the next one -- the
        cumulative semantics a single in-process tracker gives for
        free.
        """
        export = export_context(context)
        tick = time.perf_counter()
        envelope = pool.submit(
            _run_task, kind, payload, export, trace_enabled
        ).result()
        self._absorb(context, kind, envelope, trace_enabled)
        _PROC_TASK_SECONDS.labels(kind=kind).observe(
            time.perf_counter() - tick
        )
        return envelope

    def _absorb(
        self, context, kind, envelope: _TaskEnvelope, trace_enabled
    ) -> None:
        """Merge one envelope's worker-side state into this process."""
        _PROC_TASKS.labels(kind=kind).inc()
        obs_metrics.merge_delta(envelope.obs_delta)
        if context is not None:
            if context.tracker is not None and any(
                envelope.tracker_delta
            ):
                context.tracker.absorb(*envelope.tracker_delta)
            if isinstance(context.faults, FaultPlan) and (
                envelope.fault_counters or envelope.fault_fired
            ):
                context.faults.absorb(
                    envelope.fault_counters, envelope.fault_fired
                )
            context.truncated_mass += envelope.truncated_mass
        if trace_enabled and envelope.span is not None:
            graft = Span.from_dict(envelope.span)
            parent = current_span()
            if parent is not None:
                parent.add_child(graft)
            else:
                TRACER._retain_root(graft)

    def close(self) -> None:
        """Shut the pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ProcessDispatcher":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# high-level flows
# ----------------------------------------------------------------------
def _unlink_manifest(manifest: HalvesManifest) -> None:
    """Destroy a handed-off manifest's segments (already-gone is fine)."""
    with ShmLease(owner=True) as lease:
        for name in manifest.segment_names():
            try:
                open_segment(name, lease)
            except FileNotFoundError:
                pass


def _adopt_manifest(engine, meta, manifest: HalvesManifest):
    """Copy worker-published halves into the engine memo and unlink;
    returns the copied halves."""
    key = tuple(relation.name for relation in meta.relations)
    signature = engine.graph.relations_signature(key)
    with ShmLease(owner=True) as lease:
        halves = attach_halves(manifest, lease, copy=True)
    engine.adopt_halves(key, signature, halves)
    return halves


def warm_via_processes(engine, metas, workers: int) -> int:
    """Materialise halves for ``metas`` in worker processes.

    Paths already fresh in the engine memo are skipped; the rest
    materialise in the pool (in parallel on the fast path, one at a
    time under ambient limits/faults) and are adopted -- copied out of
    shared memory into the parent memo, segments destroyed.  Returns
    the number of paths adopted.
    """
    pending = [meta for meta in metas if not engine.has_halves(meta)]
    if not pending:
        return 0
    with ProcessDispatcher(engine.graph, workers) as pool:
        manifests = pool.map(
            [("warm", meta.code()) for meta in pending],
            cleanup=_unlink_manifest,
        )
        for meta, manifest in zip(pending, manifests):
            _adopt_manifest(engine, meta, manifest)
    return len(pending)


def _partition(rows: Sequence[int], shards: int) -> List[List[int]]:
    """Contiguous near-even split preserving order (and determinism)."""
    rows = list(rows)
    shards = max(1, min(shards, len(rows)))
    base, extra = divmod(len(rows), shards)
    out: List[List[int]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        out.append(rows[start : start + size])
        start += size
    return out


def score_groups_via_processes(server, groups, workers: int):
    """The batch server's process-tier scoring loop.

    Each HeteSim group's row-block GEMM is sharded across the pool
    (halves published to shared memory once per group); measures
    without a shardable half-matrix form (combined, PPR, ...) score
    in-parent through the server's own ``_score_group``, so a mixed
    batch routes through one tier without changing results.  Groups
    run one after another -- the parallelism that pays is inside the
    block GEMM, and sequential groups keep fault provenance and the
    memo-adoption order deterministic.
    """
    engine = server.engine
    rankings = []
    with ProcessDispatcher(engine.graph, workers) as pool:
        for group in groups:
            if group.measure.name == "hetesim":
                rankings.append(
                    _score_hetesim_group(server, pool, group, workers)
                )
            else:
                rankings.append(server._score_group(group))
    return rankings


def _score_hetesim_group(server, pool, group, workers: int):
    """Shard one HeteSim group's block GEMM across the pool."""
    engine = server.engine
    meta = engine.path(group.spec)
    with trace_span(
        "batch.score_group",
        measure=group.measure.name,
        path=group.shape.display,
        size=len(group.members),
        backend="process",
    ) as group_span:
        if engine.has_halves(meta):
            halves = engine.halves(meta)
        else:
            # Cold group: the materialisation GEMM itself runs in a
            # worker (limits and fault sites fire there), then the
            # parent adopts the published halves.
            manifests = pool.map(
                [("warm", meta.code())], cleanup=_unlink_manifest
            )
            halves = _adopt_manifest(engine, meta, manifests[0])

        rows = sorted({row for _, _, row in group.members})
        flags = tuple(
            sorted({query.normalized for _, query, _ in group.members})
        )
        shards = _partition(rows, workers)
        tick = time.perf_counter()
        with ShmLease(owner=True) as lease:
            manifest = publish_halves(halves, lease)
            outputs = pool.map(
                [
                    ("score_shard", (manifest, shard, flags))
                    for shard in shards
                ]
            )
        # Shards partition the sorted row list contiguously, so
        # stacking in shard order reassembles exactly the full block.
        blocks = {
            flag: np.vstack(
                [shard_blocks[flag] for shard_blocks, _ in outputs]
            )
            for flag in flags
        }
        nnz = sum(shard_nnz for _, shard_nnz in outputs)
        gemm_seconds = time.perf_counter() - tick
        server._observe_group(group, gemm_seconds, nnz)
        group_span.set(gemm_ms=round(gemm_seconds * 1e3, 3), nnz=nnz)
        keys = engine.graph.node_keys(group.shape.target_type)
        return server._select(group, rows, blocks, keys)
