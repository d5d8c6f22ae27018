"""The in-process workloads: ``batch-score`` and ``write-read``.

Both run single-threaded (``workers=1``) in this process; an operation
is one ``QueryServer.run`` of a 64-query batch, or one ingest of a new
paper followed by three ``HeteSimEngine.top_k`` reads.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List

import numpy as np

from common import (
    GATE_SAMPLES,
    SETUP_REPEATS,
    Outcome,
    engine_counters,
    graph_counts,
    latency_summary,
    ms,
    peak_rss_mb,
    perturbed,
    put_counters,
    put_shares,
    sample_indices,
    set_up,
    span_ms,
    tail_ms,
    traced_set_up,
)
from gate import Reference, check_ranking
from inputs import (
    BATCH_SIZE,
    TOP_K,
    WARM_PATHS,
    WRITE_READ_PATHS,
    make_batches,
    make_writes,
)
from spans import Recorder

#: Distinct batches in the seeded sequence: enough that the latency
#: distribution of a run does not hinge on a few batches.
BATCHES = 256
WARM_BATCHES = 16
#: Writes per write-read round; every round starts from a fresh copy of
#: the reference graph, so each run's graphs end the same size.
WRITES_PER_ROUND = {"reference": 200, "toy": 60}
MIN_ROUNDS = 5


def _set_up_repeatedly(run, paths, out: Outcome):
    """``SETUP_REPEATS`` set-ups; keeps the last graph and engine."""
    setups, builds, built = [], [], None
    for _ in range(SETUP_REPEATS):
        built = None  # release the previous graph and engine first
        built = set_up(run.repro, run.inputs, paths)
        builds.append(built[2])
        setups.append(built[3])
    out.info["setup_samples_s"] = setups
    return built[0], built[1], setups, builds


def _loop(seconds: float, minimum: int, step) -> tuple:
    """Call ``step(i)`` until ``seconds`` passed and ``minimum`` calls
    were made; returns per-call seconds and the loop's wall time."""
    latencies: List[float] = []
    started = time.perf_counter()
    deadline = started + seconds
    i = 0
    while True:
        tick = time.perf_counter()
        step(i)
        tock = time.perf_counter()
        latencies.append(tock - tick)
        i += 1
        if tock >= deadline and i >= minimum:
            return latencies, tock - started


# ----------------------------------------------------------------------
# batch-score
# ----------------------------------------------------------------------
def batch_score(run) -> Outcome:
    from repro.core.measures import get_measure
    from repro.core.search import select_top_k
    from repro.obs.trace import TRACER
    from repro.serve.batch import BatchRequest, Query, QueryServer

    out = Outcome()
    graph, engine, setups, builds = _set_up_repeatedly(run, WARM_PATHS, out)
    server = QueryServer(engine)
    specs = make_batches(run.seed, run.inputs, BATCHES)
    requests = [
        BatchRequest(
            [Query(q.source, q.path, k=TOP_K, measure=q.measure) for q in batch],
            workers=1,
        )
        for batch in specs
    ]
    keep = sample_indices(run.seed, BATCHES * BATCH_SIZE, GATE_SAMPLES, 1)
    answers: Dict[int, tuple] = {}

    def step(i: int) -> None:
        b = i % BATCHES
        out.attempted += 1
        try:
            result = server.run(requests[b])
        except Exception as exc:  # a failed operation, not a broken bench
            out.fail(f"batch {b}: {type(exc).__name__}: {exc}")
            return
        for position, item in enumerate(result.results):
            index = b * BATCH_SIZE + position
            if index in keep and index not in answers:
                answers[index] = item.ranking

    for request in requests[:WARM_BATCHES]:  # fills the measures' caches
        server.run(request)
    phase_s = run.seconds / 2 if run.trace else run.seconds
    counters = engine_counters(engine)
    latencies, wall = _loop(phase_s, BATCHES, step)
    queries = sum(len(requests[i % BATCHES].queries) for i in range(len(latencies)))

    out.put("setup_s", statistics.median(setups), "s")
    out.put("p50_ms", ms(latencies), "ms")
    out.put("tail_ms", tail_ms(latencies), "ms")
    out.put("qps", queries / wall, "1/s")
    out.put("rss_mb", peak_rss_mb(), "MB")
    out.info["latency"] = latency_summary(latencies)

    if run.trace:
        put_counters(out, counters, engine_counters(engine),
                     len(latencies))
        out.put("hin.build_s", statistics.median(builds), "s")
        setup = traced_set_up(run.repro, run.inputs, WARM_PATHS, TRACER)[2]
        out.put("hin.adjacency_ms", span_ms(setup, "HeteroGraph.adjacency"), "ms")
        out.put("core.materialise_ms", span_ms(setup, "HeteSimEngine.halves"),
                "ms")
        _trace_batches(run, out, server, requests, get_measure,
                       select_top_k, TRACER)

    if run.perturb and answers:
        first = min(answers)
        answers[first] = perturbed(answers[first])
    reference = Reference(run.inputs.keys, run.inputs.writes,
                          run.inputs.published_in)
    for index, ranking in sorted(answers.items()):
        q = specs[index // BATCH_SIZE][index % BATCH_SIZE]
        problem = check_ranking(
            reference.scores(q.measure, q.path, q.source),
            reference.target_keys(q.path), ranking, TOP_K,
        )
        if problem:
            out.mismatches.append(f"{q.measure} {q.path} {q.source}: {problem}")
    out.info["answers_checked"] = len(answers)
    out.info["graph"] = graph_counts(graph)
    return out


def _trace_batches(run, out, server, requests, get_measure, select_top_k,
                   tracer) -> None:
    """Traced half: each batch runs once untraced, then traced through
    ``QueryServer.run`` and again through the public calls it is built
    from; the paired untraced runs give the tracing overhead."""
    engine = server.engine
    ctx = engine.measures
    graph = engine.graph
    rec = Recorder(tracer)
    plain: List[float] = []
    nnz_first_pass = 0
    groups_first_pass = 0

    def traced(i: int, request) -> None:
        nonlocal nnz_first_pass, groups_first_pass
        with rec.op("batch"):
            with rec.span("QueryServer.run", "serve.batch"):
                server.run(request)
            with rec.span("Measure.resolve", "core.measures"):
                groups: Dict[tuple, tuple] = {}
                for q in request.queries:
                    measure = get_measure(q.measure)
                    shape = measure.resolve(ctx, q.path)
                    row = graph.node_index(shape.source_type, q.source)
                    groups.setdefault(
                        (measure.name, shape.group_key), (measure, q.path, [])
                    )[2].append((q, row))
            for measure, spec, members in groups.values():
                rows = sorted({row for _, row in members})
                with rec.span("Measure.prepare", "core.measures"):
                    prepared = measure.prepare(ctx, spec)
                with rec.span("score_rows.raw", "core.measures"):
                    prepared.score_rows(rows, normalized=False)
                with rec.span("Measure.prepare.fresh", "core.measures"):
                    fresh = measure.prepare(ctx, spec)
                with rec.span("score_rows.normalised", "core.measures"):
                    block = fresh.score_rows(rows, normalized=True)
                with rec.span("select_top_k", "core.search"):
                    keys = fresh.target_keys()
                    position = {row: n for n, row in enumerate(rows)}
                    for q, row in members:
                        select_top_k(block[position[row]], keys, q.k)
                if i < BATCHES:
                    nnz_first_pass += getattr(prepared, "last_block_nnz", 0)
            if i < BATCHES:
                groups_first_pass += len(groups)

    def step(i: int) -> None:
        request = requests[i % BATCHES]
        tick = time.perf_counter()
        server.run(request)
        plain.append(time.perf_counter() - tick)
        tracer.enable()
        try:
            traced(i, request)
        finally:
            tracer.disable()

    _loop(run.seconds / 2, BATCHES, step)

    per_op = list(rec.per_op().values())
    names = ("Measure.resolve", "Measure.prepare", "score_rows.raw",
             "score_rows.normalised", "select_top_k", "QueryServer.run")
    cols = {name: np.array([op.get(name, 0.0) for op in per_op]) for name in names}
    normalise = cols["score_rows.normalised"] - cols["score_rows.raw"]
    measures = (cols["Measure.resolve"] + cols["Measure.prepare"]
                + cols["score_rows.raw"] + normalise)
    glue = cols["QueryServer.run"] - measures - cols["select_top_k"]
    out.put("batch.run_ms", ms(cols["QueryServer.run"]), "ms")
    out.put("batch.glue_ms", ms(glue), "ms")
    out.put("batch.groups", groups_first_pass / BATCHES, "count")
    out.put("measures.resolve_ms", ms(cols["Measure.resolve"]), "ms")
    out.put("measures.prepare_ms", ms(cols["Measure.prepare"]), "ms")
    out.put("measures.score_ms", ms(cols["score_rows.raw"]), "ms")
    out.put("measures.normalise_ms", ms(normalise), "ms")
    out.put("measures.block_nnz", nnz_first_pass, "count")
    out.put("search.select_ms", ms(cols["select_top_k"]), "ms")
    out.put("obs.trace_overhead", ms(cols["QueryServer.run"]) / ms(plain),
            "ratio")
    out.put("trace.unattributed_share", rec.unattributed_share(), "ratio")
    put_shares(out, float(cols["QueryServer.run"].mean()), {
        "core.measures": float(measures.mean()),
        "core.search": float(cols["select_top_k"].mean()),
        "serve.batch": float(glue.mean()),
    })
    out.trace = rec.dump()


# ----------------------------------------------------------------------
# write-read
# ----------------------------------------------------------------------
def _plain_op(graph, engine, op, index: int) -> list:
    for author in op.authors:
        graph.add_edge("writes", author, op.paper)
    graph.add_edge("published_in", op.paper, op.conf)
    return [engine.top_k(op.reader, path, k=TOP_K) for path in WRITE_READ_PATHS]


class _Rounds:
    """Write-read rounds: each starts from a freshly built and warmed
    reference graph and applies the same seeded writes, so every round
    (and every run) ends on a graph of the same size."""

    def __init__(self, run, out: Outcome, ops, keep) -> None:
        self.run, self.out, self.ops = run, out, ops
        self.answers: Dict[int, List[list]] = {index: [] for index in keep}
        self.setups: List[float] = []
        self.builds: List[float] = []
        self.windows: List[tuple] = []
        self.counters: Dict[str, float] = {}
        self.graph = None

    def run_round(self, op_step) -> List[float]:
        graph, engine, build_s, setup_s = set_up(
            self.run.repro, self.run.inputs, WRITE_READ_PATHS
        )
        self.setups.append(setup_s)
        self.builds.append(build_s)
        before = engine_counters(engine)
        latencies = []
        start = time.perf_counter()
        for index, op in enumerate(self.ops):
            self.out.attempted += 1
            tick = time.perf_counter()
            try:
                rankings = op_step(graph, engine, op, index)
            except Exception as exc:  # a failed operation, not a broken bench
                self.out.fail(f"write {op.paper}: {type(exc).__name__}: {exc}")
                rankings = None
            latencies.append(time.perf_counter() - tick)
            if rankings is not None and index in self.answers:
                self.answers[index].append(rankings)
        self.windows.append((start, time.perf_counter()))
        after = engine_counters(engine)
        for key in before:
            self.counters[key] = self.counters.get(key, 0.0) + after[key] - before[key]
        self.graph = graph
        return latencies

    def repeat(self, op_step, seconds: float, minimum: int) -> List[float]:
        latencies: List[float] = []
        started = time.perf_counter()
        rounds = 0
        while rounds < minimum or time.perf_counter() - started < seconds:
            latencies += self.run_round(op_step)
            rounds += 1
        return latencies


def write_read(run) -> Outcome:
    from repro.obs.trace import TRACER

    out = Outcome()
    count = WRITES_PER_ROUND[run.size]
    ops = make_writes(run.seed, run.inputs, count)
    rounds = _Rounds(run, out, ops, sample_indices(run.seed, count, 16, 2))
    phase_s = run.seconds / 2 if run.trace else run.seconds
    latencies = rounds.repeat(_plain_op, phase_s, 1 if run.trace else MIN_ROUNDS)
    spent = sum(end - start for start, end in rounds.windows)

    out.put("setup_s", statistics.median(rounds.setups), "s")
    out.put("p50_ms", ms(latencies), "ms")
    out.put("tail_ms", tail_ms(latencies), "ms")
    out.put("qps", len(latencies) * len(WRITE_READ_PATHS) / spent, "1/s")
    out.put("rss_mb", peak_rss_mb(), "MB")
    out.info["latency"] = latency_summary(latencies)
    out.info["rounds"] = len(rounds.windows)
    out.info["setup_samples_s"] = list(rounds.setups)
    out.info["graph"] = graph_counts(rounds.graph)

    if run.trace:
        zero = {key: 0.0 for key in rounds.counters}
        put_counters(out, zero, rounds.counters, len(latencies))
        out.put("hin.build_s", statistics.median(rounds.builds), "s")
        _trace_writes(run, out, rounds, TRACER)

    if run.perturb:
        first = min(i for i, found in rounds.answers.items() if found)
        rounds.answers[first][0][0] = perturbed(rounds.answers[first][0][0])
    _check_writes(run, out, ops, rounds.answers)
    return out


def _trace_writes(run, out, rounds: _Rounds, tracer) -> None:
    """Traced half: every other write-read is split into its layer calls
    -- the adjacency and halves that ``top_k`` would rebuild lazily after
    the write are requested explicitly first, so the reads hit the memo;
    the untraced ones in between give the tracing overhead."""
    rec = Recorder(tracer)
    plain: List[float] = []

    def traced(graph, engine, op) -> list:
        with rec.op("write-read"):
            with rec.span("HeteroGraph.add_edge", "hin"):
                for author in op.authors:
                    graph.add_edge("writes", author, op.paper)
                graph.add_edge("published_in", op.paper, op.conf)
            with rec.span("HeteroGraph.adjacency", "hin"):
                graph.adjacency("writes")
                graph.adjacency("published_in")
            for path in WRITE_READ_PATHS:
                with rec.span("HeteSimEngine.halves", "core.materialise"):
                    engine.halves(engine.path(path))
            rankings = []
            for path in WRITE_READ_PATHS:
                with rec.span("HeteSimEngine.top_k", "core.engine"):
                    rankings.append(engine.top_k(op.reader, path, k=TOP_K))
            return rankings

    def mixed(graph, engine, op, index: int) -> list:
        if index % 2 == 0:
            tick = time.perf_counter()
            rankings = _plain_op(graph, engine, op, index)
            plain.append(time.perf_counter() - tick)
            return rankings
        tracer.enable()
        try:
            return traced(graph, engine, op)
        finally:
            tracer.disable()

    rounds.repeat(mixed, run.seconds / 2, 1)

    per_op = list(rec.per_op().values())
    names = ("op", "HeteroGraph.add_edge", "HeteroGraph.adjacency",
             "HeteSimEngine.halves", "HeteSimEngine.top_k")
    cols = {name: np.array([op.get(name, 0.0) for op in per_op]) for name in names}
    out.put("hin.adjacency_ms", ms(cols["HeteroGraph.adjacency"]), "ms")
    out.put("core.materialise_ms", span_ms(rec, "HeteSimEngine.halves"), "ms")
    out.put("engine.query_ms", span_ms(rec, "HeteSimEngine.top_k"), "ms")
    out.put("obs.trace_overhead", ms(cols["op"]) / ms(plain), "ratio")
    out.put("trace.unattributed_share", rec.unattributed_share(), "ratio")
    put_shares(out, float(cols["op"].mean()), {
        "hin": float((cols["HeteroGraph.add_edge"]
                      + cols["HeteroGraph.adjacency"]).mean()),
        "core.materialise": float(cols["HeteSimEngine.halves"].mean()),
        "core.engine": float(cols["HeteSimEngine.top_k"].mean()),
    })
    out.trace = rec.dump()


def _check_writes(run, out: Outcome, ops, answers) -> None:
    """Check sampled reads against the graph as it stood after their
    write, so a stale half matrix fails."""
    keys = run.inputs.keys
    base = len(keys["paper"])
    author = {key: i for i, key in enumerate(keys["author"])}
    conf = {key: i for i, key in enumerate(keys["conf"])}
    checked = 0
    for index in sorted(answers):
        if not answers[index]:
            continue
        done = ops[: index + 1]
        writes = [(author[a], base + j) for j, op in enumerate(done)
                  for a in op.authors]
        published = [(base + j, conf[op.conf]) for j, op in enumerate(done)]
        reference = Reference(
            {**keys, "paper": keys["paper"] + [op.paper for op in done]},
            np.vstack([run.inputs.writes, np.array(writes, dtype=np.int64)]),
            np.vstack([run.inputs.published_in,
                       np.array(published, dtype=np.int64)]),
        )
        reader = ops[index].reader
        for rankings in answers[index]:
            for path, ranking in zip(WRITE_READ_PATHS, rankings):
                checked += 1
                problem = check_ranking(
                    reference.scores("hetesim", path, reader),
                    reference.target_keys(path), ranking, TOP_K,
                )
                if problem:
                    out.mismatches.append(
                        f"after {ops[index].paper}: {path} {reader}: {problem}"
                    )
    out.info["answers_checked"] = checked
