"""General-purpose relevance-search CLI over saved graphs.

Workflows::

    # One relevance score.
    python -m repro.cli query graph.json --path APC --source Tom --target KDD

    # Top-k ranked search.
    python -m repro.cli topk graph.json --path APC --source Tom -k 5

    # Multi-path profiling.
    python -m repro.cli profile graph.json --source Tom \\
        --paths conferences=APC coauthors=APA

    # Full multi-type profile with automatic path choice.
    python -m repro.cli autoprofile graph.json --type author --key Tom

    # Structural validation report.
    python -m repro.cli validate graph.json

    # Bounded query with graceful degradation (see repro.runtime).
    python -m repro.cli query graph.json --path APVC --source Tom \\
        --target KDD --deadline-ms 50 --on-limit degrade

    # Artefact health checks: graph file + matrix store directory.
    python -m repro.cli doctor graph.json --store store_dir/

    # Static invariant checks over the library source (repro-lint);
    # exit 1 on unbaselined findings, so CI can block on it.
    python -m repro.cli lint [PATHS ...] --format json

    # Cache counters (hits, misses, evictions) and each materialisation's
    # traced plan.execute tree (per-product nnz/time, cached prefixes)
    # under an optional cache byte budget.
    python -m repro.cli cache-stats graph.json --paths APC APVC \\
        --budget-kb 64 --repeat 2

    # Off-line warm-up: pre-materialise (and optionally persist) the
    # half matrices of frequently-served paths.
    python -m repro.cli serve-warm graph.json --paths APC APVC \\
        --workers 4 --store store_dir/

    # Batched serving: many queries answered with group-by-path block
    # GEMM scoring (SOURCE:PATH items); --trace prints the span tree.
    python -m repro.cli serve-batch graph.json \\
        --queries Tom:APC Mary:APC Tom:APVC -k 5 --workers 4 --trace

    # Network serving: async HTTP tier with per-tenant API keys, token
    # buckets, a bounded admission queue and graceful SIGTERM drain.
    # Overload degrades through the resilience ladder (provenance in
    # X-Repro-* headers) instead of failing.
    python -m repro.cli serve-http graph.json --port 8080 \\
        --tenants tenants.json --workers 4 --deadline-ms 250

    # Observability exports: run a warm+batch workload, then emit the
    # metric registry (Prometheus text or JSON) or the recorded spans.
    python -m repro.cli metrics graph.json --paths APC APVC --format json
    python -m repro.cli trace graph.json --paths APC --workers 2

Graphs are the JSON documents produced by
:func:`repro.hin.io.save_graph`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.engine import HeteSimEngine
from .core.measures import get_measure
from .hin.errors import ReproError
from .hin.io import load_graph
from .hin.validation import graph_report
from .runtime.limits import execution_scope

__all__ = ["main"]


def _add_limit_arguments(command: argparse.ArgumentParser) -> None:
    """Resilient-runtime flags shared by ``query`` and ``topk``."""
    command.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        dest="deadline_ms",
        help="wall-clock deadline per attempt (milliseconds)",
    )
    command.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        dest="max_bytes",
        help="cumulative byte budget for materialised intermediates",
    )
    command.add_argument(
        "--on-limit",
        choices=("degrade", "fail"),
        default="degrade",
        dest="on_limit",
        help="on breach: retry through cheaper strategies (degrade) "
        "or raise the typed error (fail)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="HeteSim relevance search over a saved graph.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    query = commands.add_parser("query", help="score one object pair")
    query.add_argument("graph", help="graph JSON file (see repro.hin.io)")
    query.add_argument("--path", required=True, help="path spec, e.g. APC")
    query.add_argument("--source", required=True)
    query.add_argument("--target", required=True)
    query.add_argument(
        "--raw", action="store_true",
        help="report the raw meeting probability instead of the cosine",
    )
    query.add_argument(
        "--measure",
        default="hetesim",
        help="relevance measure plugin (see the 'measures' command); "
        "non-default measures run limits in fail mode",
    )
    _add_limit_arguments(query)

    topk = commands.add_parser("topk", help="rank targets for one source")
    topk.add_argument("graph")
    topk.add_argument("--path", required=True)
    topk.add_argument("--source", required=True)
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument(
        "--measure",
        default="hetesim",
        help="relevance measure plugin (see the 'measures' command); "
        "non-default measures run limits in fail mode",
    )
    _add_limit_arguments(topk)

    profile = commands.add_parser(
        "profile", help="top objects along several labelled paths"
    )
    profile.add_argument("graph")
    profile.add_argument("--source", required=True)
    profile.add_argument(
        "--paths",
        required=True,
        nargs="+",
        metavar="LABEL=PATH",
        help="labelled path specs, e.g. conferences=APC coauthors=APA",
    )
    profile.add_argument("-k", type=int, default=5)

    explain = commands.add_parser(
        "explain", help="top contributing middle objects for one pair"
    )
    explain.add_argument("graph")
    explain.add_argument("--path", required=True)
    explain.add_argument("--source", required=True)
    explain.add_argument("--target", required=True)
    explain.add_argument("-k", type=int, default=5)

    autoprofile = commands.add_parser(
        "autoprofile",
        help="profile an object against every reachable type",
    )
    autoprofile.add_argument("graph")
    autoprofile.add_argument("--type", required=True, dest="object_type")
    autoprofile.add_argument("--key", required=True, dest="object_key")
    autoprofile.add_argument("-k", type=int, default=5)
    autoprofile.add_argument(
        "--max-path-length", type=int, default=4, dest="max_path_length"
    )

    paths = commands.add_parser(
        "paths", help="enumerate relevance paths between two types"
    )
    paths.add_argument("graph")
    paths.add_argument("--source", required=True, dest="source_type")
    paths.add_argument("--target", required=True, dest="target_type")
    paths.add_argument(
        "--max-length", type=int, default=4, dest="max_length"
    )

    stats = commands.add_parser(
        "stats", help="degree/density statistics and path cost estimates"
    )
    stats.add_argument("graph")
    stats.add_argument(
        "--path", default=None,
        help="optional path spec to estimate computation cost for",
    )

    cache_stats = commands.add_parser(
        "cache-stats",
        help="materialise paths; print cache counters and plan.execute traces",
    )
    cache_stats.add_argument("graph")
    cache_stats.add_argument(
        "--paths",
        required=True,
        nargs="+",
        metavar="PATH",
        help="path specs to materialise, e.g. APC APVC APVCVPA",
    )
    cache_stats.add_argument(
        "--budget-kb",
        type=int,
        default=None,
        dest="budget_kb",
        help="optional cache byte budget in KiB (LRU eviction)",
    )
    cache_stats.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="materialise the path list this many times (shows cache hits)",
    )

    serve_warm = commands.add_parser(
        "serve-warm",
        help="pre-materialise half matrices for frequently-served paths",
    )
    serve_warm.add_argument("graph")
    serve_warm.add_argument(
        "--paths",
        required=True,
        nargs="+",
        metavar="PATH",
        help="path specs to warm, e.g. APC APVC",
    )
    serve_warm.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent materialisation threads",
    )
    serve_warm.add_argument(
        "--store",
        default=None,
        dest="store_dir",
        help="persist the half-path matrices to this store directory",
    )

    serve_batch = commands.add_parser(
        "serve-batch",
        help="answer many queries with group-by-path batch scoring",
    )
    serve_batch.add_argument("graph")
    serve_batch.add_argument(
        "--queries",
        required=True,
        nargs="+",
        metavar="SOURCE:PATH[@MEASURE]",
        help="queries as SOURCE:PATH items, e.g. Tom:APC Mary:APVC; "
        "append @MEASURE to route one query to another measure "
        "plugin, e.g. Tom:APCPA@pathsim",
    )
    serve_batch.add_argument("-k", type=int, default=10)
    serve_batch.add_argument(
        "--measure",
        default="hetesim",
        help="default measure for items without an @MEASURE suffix",
    )
    serve_batch.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent path-group workers",
    )
    serve_batch.add_argument(
        "--raw", action="store_true",
        help="rank by raw meeting probability instead of the cosine",
    )
    serve_batch.add_argument(
        "--trace", action="store_true",
        help="record execution spans and print the span tree to stderr",
    )

    serve_http = commands.add_parser(
        "serve-http",
        help="serve relevance queries over HTTP with admission control",
    )
    serve_http.add_argument("graph")
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8080)
    serve_http.add_argument(
        "--workers",
        type=int,
        default=4,
        help="CPU worker threads query execution is offloaded to",
    )
    serve_http.add_argument(
        "--tenants",
        default=None,
        help="JSON tenant table: API keys mapped to rate limits and "
        "per-tenant execution limits",
    )
    serve_http.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        dest="queue_capacity",
        help="bounded admission queue; excess load is shed with 503",
    )
    serve_http.add_argument(
        "--allow-anonymous",
        action="store_true",
        dest="allow_anonymous",
        help="accept requests without an API key as the 'anonymous' "
        "tenant even when a tenant table is configured",
    )
    serve_http.add_argument(
        "--store",
        default=None,
        dest="store_dir",
        help="matrix store directory checked by GET /doctor",
    )
    serve_http.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        dest="deadline_ms",
        help="server-wide default deadline per request (milliseconds)",
    )
    serve_http.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        dest="max_bytes",
        help="server-wide default byte budget per request",
    )

    commands.add_parser(
        "measures",
        help="list the registered relevance measure plugins",
    )

    metrics = commands.add_parser(
        "metrics",
        help="run a warm+batch workload and export the obs metrics",
    )
    metrics.add_argument("graph")
    metrics.add_argument(
        "--paths",
        required=True,
        nargs="+",
        metavar="PATH",
        help="path specs to warm and serve, e.g. APC APVC",
    )
    metrics.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent materialisation/scoring threads",
    )
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        dest="output_format",
        help="export format: Prometheus text (prom) or JSON",
    )

    trace = commands.add_parser(
        "trace",
        help="run a warm+batch workload and print the recorded span trees",
    )
    trace.add_argument("graph")
    trace.add_argument(
        "--paths",
        required=True,
        nargs="+",
        metavar="PATH",
        help="path specs to warm and serve, e.g. APC APVC",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=1,
        help="concurrent materialisation/scoring threads",
    )
    trace.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="span-tree rendering (indented text or JSON)",
    )

    validate = commands.add_parser(
        "validate", help="structural validation report"
    )
    validate.add_argument("graph")

    doctor = commands.add_parser(
        "doctor",
        help="validate a graph file and (optionally) a matrix store",
    )
    doctor.add_argument("graph")
    doctor.add_argument(
        "--store",
        default=None,
        dest="store_dir",
        help="matrix-store directory to check (index/payload/checksums)",
    )

    lint = commands.add_parser(
        "lint",
        help="run the repro-lint static invariant checks (repro.analysis)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="report format (text for humans, json for CI)",
    )
    lint.add_argument(
        "--baseline",
        default="lint_baseline.toml",
        help="justification-required allowlist (TOML); ignored if absent",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        dest="no_baseline",
        help="report every finding, even baselined ones",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        dest="write_baseline",
        help="write the current findings to --baseline and exit 0 "
        "(every generated entry still needs a real justification)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run exclusively "
        "(e.g. RPR010,RPR011)",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        help="comma-separated rule ids to skip",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code (0 ok, 2 usage error)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _limits_from(args: argparse.Namespace):
    """Build ExecutionLimits from CLI flags; None when no flag given."""
    if args.deadline_ms is None and args.max_bytes is None:
        return None
    from .runtime.limits import ExecutionLimits

    return ExecutionLimits(
        deadline_ms=args.deadline_ms, max_bytes=args.max_bytes
    )


def _run_lint(args: argparse.Namespace) -> int:
    """The ``lint`` subcommand: no graph involved, pure static analysis."""
    from pathlib import Path

    from .analysis import (
        load_baseline,
        render_json,
        render_text,
        run_lint,
        write_baseline,
    )

    baseline = None
    previous = None
    baseline_path = Path(args.baseline)
    if baseline_path.is_file():
        if args.write_baseline:
            # Regenerating: keep the old entries around so findings that
            # persist inherit their human-written reasons.
            previous = load_baseline(baseline_path)
        elif not args.no_baseline:
            baseline = load_baseline(baseline_path)

    def _rule_ids(raw):
        return [part.strip() for part in raw.split(",") if part.strip()]

    select = _rule_ids(args.select) if args.select else None
    ignore = _rule_ids(args.ignore) if args.ignore else ()

    # Finding paths (what baseline entries match on) are anchored at
    # the baseline file's directory, so `hetesim lint --baseline
    # repo/lint_baseline.toml` works from any working directory.
    root = baseline_path.resolve().parent
    result = run_lint(
        args.paths,
        root=root,
        baseline=baseline,
        select=select,
        ignore=ignore,
    )

    if args.write_baseline:
        count = write_baseline(result.findings, baseline_path, previous)
        print(
            f"wrote {count} suppression(s) to {baseline_path} -- "
            "fill in each 'reason' before committing"
        )
        return 0

    if args.output_format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return 0 if result.ok else 1


def _exercise_workload(graph, specs, workers: int):
    """Warm, re-query and batch-serve ``specs`` on a fresh engine.

    The shared workload behind the ``metrics`` and ``trace`` commands:
    it touches every instrumented layer -- half materialisation
    (warm), the path-matrix cache including full-key hits (a second
    materialisation pass), and group-by-path batch scoring with its
    block GEMMs -- so the exported series are all nonzero on any
    non-trivial graph.
    """
    from .core.hetesim import half_reach_matrices
    from .serve import BatchRequest, Query, QueryServer

    engine = HeteSimEngine(graph)
    engine.warm(specs, workers=workers)
    for _ in range(2):  # second pass = full-key cache hits
        for spec in specs:
            half_reach_matrices(graph, engine.path(spec), cache=engine.cache)
    queries = []
    for spec in specs:
        meta = engine.path(spec)
        keys = graph.node_keys(meta.source_type.name)
        if keys:
            queries.append(Query(keys[0], spec, k=5))
    if queries:
        QueryServer(engine).run(
            BatchRequest(queries, workers=workers)
        )
    return engine


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        return _run_lint(args)

    if args.command == "measures":
        from .core.measures import available_measures

        for name, description in available_measures().items():
            print(f"{name:10s} {description}")
        return 0

    if args.command == "doctor":
        from .runtime.doctor import run_doctor

        report = run_doctor(args.graph, args.store_dir)
        print(report.summary())
        return 0 if report.ok else 1

    graph = load_graph(args.graph)

    if args.command == "validate":
        report = graph_report(graph)
        print(report.summary())
        return 1 if report.has_errors else 0

    if args.command == "paths":
        from .hin.enumerate import enumerate_paths

        for path in enumerate_paths(
            graph.schema, args.source_type, args.target_type,
            max_length=args.max_length,
        ):
            names = " -> ".join(r.name for r in path.relations)
            print(f"{path.code()}  ({names})")
        return 0

    if args.command == "stats":
        from .hin.stats import network_stats, path_cost_estimate

        for name, stats in network_stats(graph).items():
            print(
                f"{name}: {stats.num_edges} edges, density "
                f"{stats.density:.4f}, out-degree mean/max "
                f"{stats.mean_out_degree:.2f}/{stats.max_out_degree}, "
                f"in-degree mean/max "
                f"{stats.mean_in_degree:.2f}/{stats.max_in_degree}"
            )
        if args.path:
            flops, cells = path_cost_estimate(graph, args.path)
            print(
                f"path {args.path}: ~{flops} flops, "
                f"{cells} result cells"
            )
        return 0

    if args.command == "cache-stats":
        from .core.hetesim import half_reach_matrices
        from .obs import TRACER

        budget = (
            args.budget_kb * 1024 if args.budget_kb is not None else None
        )
        engine = HeteSimEngine(graph, byte_budget=budget)
        TRACER.enable()
        try:
            for _ in range(max(1, args.repeat)):
                for spec in args.paths:
                    # Query the budgeted cache directly (not the
                    # engine's per-path half memo) so --repeat
                    # exercises cache hits.
                    half_reach_matrices(
                        graph, engine.path(spec), cache=engine.cache
                    )
        finally:
            TRACER.disable()
        print(engine.plan_stats().summary())
        for root in TRACER.roots:
            print(root.render())
        return 0

    if args.command == "serve-warm":
        engine = HeteSimEngine(graph)
        store = None
        if args.store_dir is not None:
            from .core.store import MatrixStore

            store = MatrixStore(args.store_dir)
        report = engine.warm(
            args.paths, workers=args.workers, store=store
        )
        print(report.summary())
        return 0

    if args.command == "serve-batch":
        from .serve import BatchRequest, Query, QueryServer

        queries = []
        for item in args.queries:
            source, sep, spec = item.rpartition(":")
            spec, at, measure = spec.partition("@")
            if not sep or not source or not spec or (at and not measure):
                print(
                    f"error: bad --queries item {item!r} "
                    "(expected SOURCE:PATH[@MEASURE])",
                    file=sys.stderr,
                )
                return 2
            queries.append(
                Query(
                    source,
                    spec,
                    k=args.k,
                    normalized=not args.raw,
                    measure=measure if at else args.measure,
                )
            )
        server = QueryServer(HeteSimEngine(graph))
        if args.trace:
            from .obs import TRACER

            TRACER.enable()
        try:
            result = server.run(
                BatchRequest(queries, workers=args.workers)
            )
        finally:
            if args.trace:
                TRACER.disable()
        for answer in result.results:
            print(f"{answer.query.source} | {answer.query.path}:")
            for rank, (key, score) in enumerate(
                answer.ranking, start=1
            ):
                print(f"  {rank:3d}  {key}  {score:.6f}")
        print(result.stats.summary(), file=sys.stderr)
        if args.trace:
            for root in TRACER.roots:
                print(root.render(), file=sys.stderr)
        return 0

    if args.command == "serve-http":
        import signal
        import threading

        from .serve.admission import (
            AdmissionController,
            Tenant,
            load_tenants,
        )
        from .serve.http import HttpServer

        tenants = load_tenants(args.tenants) if args.tenants else {}
        anonymous = (
            Tenant("anonymous")
            if (args.allow_anonymous or not tenants)
            else None
        )
        server = HttpServer(
            HeteSimEngine(graph),
            admission=AdmissionController(
                tenants,
                queue_capacity=args.queue_capacity,
                anonymous=anonymous,
            ),
            host=args.host,
            port=args.port,
            default_limits=_limits_from(args),
            workers=args.workers,
            graph_path=args.graph,
            store_dir=args.store_dir,
        )
        server.start()
        print(
            f"serving on {server.url} "
            "(SIGTERM or Ctrl-C drains and exits)"
        )
        stop = threading.Event()

        def _request_stop(signum: int, frame: object) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _request_stop)
        signal.signal(signal.SIGINT, _request_stop)
        stop.wait()
        print("draining in-flight requests...", file=sys.stderr)
        server.stop(drain=True)
        return 0

    if args.command == "metrics":
        from .obs import prometheus_text, render_json

        _exercise_workload(graph, args.paths, args.workers)
        if args.output_format == "json":
            print(render_json())
        else:
            print(prometheus_text(), end="")
        return 0

    if args.command == "trace":
        import json as _json

        from .obs import TRACER

        TRACER.enable()
        try:
            _exercise_workload(graph, args.paths, args.workers)
        finally:
            TRACER.disable()
        if args.output_format == "json":
            print(
                _json.dumps(
                    [root.to_dict() for root in TRACER.roots], indent=2
                )
            )
        else:
            for root in TRACER.roots:
                print(root.render())
        return 0

    engine = HeteSimEngine(graph)

    # HeteSim answers through the ladder: without limits its exact rung
    # gives the same bits as engine.relevance / engine.top_k.  Other
    # measures run limits in fail mode; without limits the scope is a
    # no-op.
    if args.command == "query":
        limits = _limits_from(args)
        if args.measure == "hetesim":
            result = engine.runtime(
                limits=limits, on_limit=args.on_limit
            ).relevance(
                args.source, args.target, args.path, normalized=not args.raw
            )
            if result.degraded:
                print(result.summary(), file=sys.stderr)
            name, score = "HeteSim", result.value
        else:
            tracker = limits.tracker() if limits is not None else None
            with execution_scope(tracker=tracker):
                score = get_measure(args.measure).pair(
                    engine.measures, args.path, args.source,
                    args.target, normalized=not args.raw,
                )
            name = args.measure
        kind = "raw" if args.raw else "normalized"
        print(
            f"{name}({args.source}, {args.target} | {args.path}) "
            f"[{kind}] = {score:.6f}"
        )
        return 0

    if args.command == "topk":
        limits = _limits_from(args)
        if args.measure == "hetesim":
            result = engine.runtime(
                limits=limits, on_limit=args.on_limit
            ).top_k(args.source, args.path, k=args.k)
            if result.degraded:
                print(result.summary(), file=sys.stderr)
            ranking = result.value
        else:
            tracker = limits.tracker() if limits is not None else None
            with execution_scope(tracker=tracker):
                ranking = get_measure(args.measure).top_k(
                    engine.measures, args.path, args.source, k=args.k
                )
        for rank, (key, score) in enumerate(ranking, start=1):
            print(f"{rank:3d}  {key}  {score:.6f}")
        return 0

    if args.command == "explain":
        contributions = engine.explain(
            args.source, args.target, args.path, k=args.k
        )
        if not contributions:
            print("no connection: the pair's relevance is 0")
            return 0
        score = engine.relevance(args.source, args.target, args.path)
        print(
            f"HeteSim({args.source}, {args.target} | {args.path}) = "
            f"{score:.6f}; top contributing middle objects:"
        )
        for contribution in contributions:
            middle = contribution.middle
            if isinstance(middle, tuple):
                middle = " -> ".join(middle)
            print(
                f"  {middle}  share={contribution.share:.1%}  "
                f"(fwd {contribution.forward_probability:.4f} x "
                f"bwd {contribution.backward_probability:.4f})"
            )
        return 0

    if args.command == "autoprofile":
        from .core.profiles import build_profile

        profile = build_profile(
            engine,
            args.object_type,
            args.object_key,
            k=args.k,
            max_path_length=args.max_path_length,
        )
        print(profile.to_text())
        return 0

    if args.command == "profile":
        labelled = {}
        for item in args.paths:
            label, _, spec = item.partition("=")
            if not label or not spec:
                print(
                    f"error: bad --paths item {item!r} "
                    "(expected LABEL=PATH)",
                    file=sys.stderr,
                )
                return 2
            labelled[label] = spec
        for label, ranking in engine.profile(
            args.source, labelled, k=args.k
        ).items():
            print(f"{label}:")
            for rank, (key, score) in enumerate(ranking, start=1):
                print(f"  {rank:2d}  {key}  {score:.6f}")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
