"""Integration tests for the general relevance-search CLI."""

import re

import pytest

from repro.cli import main
from repro.hin.io import save_graph


@pytest.fixture()
def graph_file(fig4, tmp_path):
    path = tmp_path / "fig4.json"
    save_graph(fig4, path)
    return str(path)


class TestQuery:
    def test_normalized_query(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1.000000" in out

    def test_raw_query(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD", "--raw"]
        )
        assert code == 0
        assert "0.500000" in capsys.readouterr().out

    def test_unknown_object_exits_nonzero(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "ghost", "--target", "KDD"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_bad_path_exits_nonzero(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "AXY",
             "--source", "Tom", "--target", "KDD"]
        )
        assert code == 2


class TestTopK:
    def test_topk_output(self, graph_file, capsys):
        code = main(
            ["topk", graph_file, "--path", "APC", "--source", "Tom", "-k", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "KDD" in lines[0]


class TestProfile:
    def test_profile_output(self, graph_file, capsys):
        code = main(
            [
                "profile", graph_file, "--source", "Tom",
                "--paths", "conferences=APC", "coauthors=APA", "-k", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conferences:" in out
        assert "coauthors:" in out
        assert "Tom" in out  # self tops the symmetric co-author path

    def test_malformed_paths_item(self, graph_file, capsys):
        code = main(
            ["profile", graph_file, "--source", "Tom", "--paths", "APC"]
        )
        assert code == 2
        assert "LABEL=PATH" in capsys.readouterr().err


class TestValidate:
    def test_clean_graph(self, graph_file, capsys):
        code = main(["validate", graph_file])
        assert code == 0
        assert "GraphReport" in capsys.readouterr().out

    def test_graph_with_errors_exits_one(self, tmp_path, capsys):
        from repro.hin.graph import HeteroGraph
        from repro.hin.schema import NetworkSchema

        schema = NetworkSchema.from_spec(
            [("a", "A"), ("b", "B")], [("r", "a", "b")]
        )
        graph = HeteroGraph(schema)
        graph.add_node("a", "only")
        target = tmp_path / "broken.json"
        save_graph(graph, target)
        assert main(["validate", str(target)]) == 1


class TestExplain:
    def test_explain_output(self, graph_file, capsys):
        code = main(
            ["explain", graph_file, "--path", "APC",
             "--source", "Mary", "--target", "KDD"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p2" in out
        assert "share=100.0%" in out

    def test_unrelated_pair(self, graph_file, capsys):
        code = main(
            ["explain", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "SIGMOD"]
        )
        assert code == 0
        assert "relevance is 0" in capsys.readouterr().out


class TestAutoProfile:
    def test_profiles_every_reachable_type(self, graph_file, capsys):
        code = main(
            ["autoprofile", graph_file, "--type", "author", "--key", "Tom",
             "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Profile of author 'Tom':" in out
        assert "paper (path AP):" in out
        assert "conference (path APC):" in out

    def test_unknown_object(self, graph_file, capsys):
        code = main(
            ["autoprofile", graph_file, "--type", "author", "--key", "zz"]
        )
        assert code == 2


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        code = main(["stats", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "writes: 6 edges" in out
        assert "density" in out

    def test_stats_with_path_estimate(self, graph_file, capsys):
        code = main(["stats", graph_file, "--path", "APC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "path APC:" in out
        assert "result cells" in out


class TestPaths:
    def test_enumerates_paths(self, graph_file, capsys):
        code = main(
            ["paths", graph_file, "--source", "author",
             "--target", "conference", "--max-length", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "APC" in out
        assert "APAPC" in out
        assert "writes" in out

    def test_unknown_type(self, graph_file):
        code = main(
            ["paths", graph_file, "--source", "ghost", "--target", "author"]
        )
        assert code == 2


class TestBoundedQuery:
    def test_zero_deadline_degrades_but_answers(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD", "--deadline-ms", "0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "HeteSim(Tom, KDD | APC)" in captured.out
        assert "degraded: tripped deadline" in captured.err

    def test_zero_deadline_fail_mode_exits_two(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD",
             "--deadline-ms", "0", "--on-limit", "fail"]
        )
        assert code == 2
        assert "deadline" in capsys.readouterr().err

    def test_byte_budget_degrades_topk(self, graph_file, capsys):
        code = main(
            ["topk", graph_file, "--path", "APCPA", "--source", "Tom",
             "-k", "2", "--max-bytes", "1"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "degraded: tripped max_bytes" in captured.err

    def test_generous_limits_stay_exact(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD",
             "--deadline-ms", "60000", "--max-bytes", "1000000000"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "1.000000" in captured.out
        assert captured.err == ""


    @pytest.mark.parametrize("measure", ["hetesim", "pathsim"])
    @pytest.mark.parametrize(
        "command",
        [
            ["query", "--path", "APCPA", "--source", "Tom", "--target", "Mary"],
            ["query", "--path", "APA", "--source", "Jim", "--target", "Mary",
             "--raw"],
            ["topk", "--path", "APCPA", "--source", "Tom", "-k", "3"],
        ],
        ids=["query", "query-raw", "topk"],
    )
    def test_generous_deadline_prints_the_same_lines(
        self, graph_file, capsys, measure, command
    ):
        argv = [command[0], graph_file, *command[1:], "--measure", measure]
        printed = []
        for limits in ([], ["--deadline-ms", "60000"]):
            assert main(argv + limits) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed[0].strip()
        assert printed[0] == printed[1]


class TestDoctor:
    def test_healthy_graph_passes(self, graph_file, capsys):
        code = main(["doctor", graph_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] graph.load" in out
        assert "OK" in out

    def test_healthy_store_passes(self, fig4, graph_file, tmp_path, capsys):
        from repro.core.store import MatrixStore

        store_dir = tmp_path / "store"
        MatrixStore(store_dir).save(fig4, [fig4.schema.path("APC")])
        code = main(["doctor", graph_file, "--store", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS] store.index" in out
        assert "[PASS] store.entry:" in out

    def test_corrupted_store_fails_with_typed_name(
        self, fig4, graph_file, tmp_path, capsys
    ):
        from repro.core.store import MatrixStore

        store_dir = tmp_path / "store"
        MatrixStore(store_dir).save(fig4, [fig4.schema.path("APC")])
        npz = next(store_dir.glob("*.npz"))
        payload = bytearray(npz.read_bytes())
        payload[0] ^= 0xFF
        npz.write_bytes(bytes(payload))
        code = main(["doctor", graph_file, "--store", str(store_dir)])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] store.entry:" in out
        assert "StoreIntegrityError" in out

    def test_missing_graph_fails(self, tmp_path, capsys):
        code = main(["doctor", str(tmp_path / "absent.json")])
        assert code == 1
        assert "FileNotFoundError" in capsys.readouterr().out


@pytest.fixture()
def clean_tracer():
    """Drop span roots recorded by a CLI invocation under test."""
    from repro.obs import TRACER

    TRACER.disable()
    TRACER.reset()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


class TestServeWarm:
    def test_warm_reports_skipped_odd_paths(
        self, graph_file, tmp_path, capsys
    ):
        # AP is odd (edge-object path): it cannot round-trip through a
        # MatrixStore, and the summary must say so instead of letting
        # the path pass as persisted.
        code = main(
            ["serve-warm", graph_file, "--paths", "AP", "APC",
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "skipped persisting 1 odd path" in out
        assert "AP" in out

    def test_warm_without_store_mentions_no_skips(
        self, graph_file, capsys
    ):
        code = main(["serve-warm", graph_file, "--paths", "APC"])
        assert code == 0
        assert "skipped" not in capsys.readouterr().out


class TestServeBatchTrace:
    def test_trace_flag_prints_span_tree_to_stderr(
        self, graph_file, capsys, clean_tracer
    ):
        code = main(
            ["serve-batch", graph_file,
             "--queries", "Tom:APC", "Mary:APC", "--trace"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "Tom | APC:" in captured.out
        assert "batch.run" in captured.err
        assert "batch.score_group" in captured.err
        assert "engine.materialise_halves" in captured.err
        # The batch's own layer timings: resolve, block GEMM, ranking.
        for attribute in ("resolve_ms=", "gemm_ms=", "select_ms="):
            assert attribute in captured.err

    def test_without_flag_no_span_tree(
        self, graph_file, capsys, clean_tracer
    ):
        code = main(
            ["serve-batch", graph_file, "--queries", "Tom:APC"]
        )
        assert code == 0
        assert "batch.run" not in capsys.readouterr().err


class TestMetricsCommand:
    def test_prometheus_text_reports_nonzero_series(
        self, graph_file, capsys
    ):
        code = main(["metrics", graph_file, "--paths", "APC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_halves_materialisations_total counter" in out
        assert "# TYPE repro_cache_hits_total counter" in out
        assert "# TYPE repro_batch_gemm_seconds histogram" in out
        assert "repro_batch_gemm_seconds_count" in out

    def test_json_reports_nonzero_acceptance_series(
        self, graph_file, capsys
    ):
        import json

        code = main(
            ["metrics", graph_file, "--paths", "APC",
             "--format", "json"]
        )
        assert code == 0
        snapshot = json.loads(capsys.readouterr().out)

        def total(name, field="value"):
            # Engine/cache labels are per-instance and other suites may
            # have minted some in this process: sum across the series.
            return sum(s[field] for s in snapshot[name]["series"])

        assert total("repro_halves_materialisations_total") >= 1
        assert total("repro_cache_hits_total") >= 1
        assert total("repro_batch_gemm_seconds", "count") >= 1
        assert total("repro_batch_gemm_seconds", "sum") > 0


class TestTraceCommand:
    def test_text_span_trees(self, graph_file, capsys, clean_tracer):
        code = main(["trace", graph_file, "--paths", "APC"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine.warm" in out
        assert "engine.materialise_halves" in out
        assert "batch.run" in out

    def test_json_span_trees_nest(
        self, graph_file, capsys, clean_tracer
    ):
        import json

        code = main(
            ["trace", graph_file, "--paths", "APC",
             "--format", "json"]
        )
        assert code == 0
        roots = json.loads(capsys.readouterr().out)
        names = [root["name"] for root in roots]
        assert "engine.warm" in names
        warm = roots[names.index("engine.warm")]
        assert any(
            child["name"] == "engine.materialise_halves"
            for child in warm.get("children", [])
        )


class TestCacheStatsCommand:
    def test_repeat_shows_hits_and_one_step_line_per_product(
        self, graph_file, capsys, clean_tracer
    ):
        code = main(
            ["cache-stats", graph_file, "--paths", "APC", "APCPA",
             "APAPC", "--repeat", "2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        hits = re.search(r"(\d+) hits / (\d+) misses", lines[0])
        assert int(hits.group(1)) > 0
        executes = [line for line in lines if line.startswith("plan.execute")]
        steps = [
            line for line in lines if line.lstrip().startswith("plan.step")
        ]
        products = sum(
            int(re.search(r"steps=(\d+)", line).group(1))
            for line in executes
        )
        assert products > 0
        assert len(steps) == products
        assert all("nnz=" in line for line in steps)


class TestMeasuresCommand:
    def test_lists_every_registered_plugin(self, capsys):
        code = main(["measures"])
        assert code == 0
        out = capsys.readouterr().out
        for name in (
            "combined", "hetesim", "pathsim", "pcrw", "ppr", "reachprob",
        ):
            assert name in out


class TestMeasureFlag:
    def test_query_with_pathsim(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APA",
             "--source", "Tom", "--target", "Tom",
             "--measure", "pathsim"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pathsim(Tom, Tom | APA)" in out
        assert "1.000000" in out

    def test_query_with_pcrw(self, graph_file, capsys):
        # Tom's papers (p1, p2) both land in KDD: reach probability 1.
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD",
             "--measure", "pcrw"]
        )
        assert code == 0
        assert "1.000000" in capsys.readouterr().out

    def test_query_unknown_measure_exits_nonzero(self, graph_file, capsys):
        code = main(
            ["query", graph_file, "--path", "APC",
             "--source", "Tom", "--target", "KDD",
             "--measure", "simrankish"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_topk_with_measure(self, graph_file, capsys):
        code = main(
            ["topk", graph_file, "--path", "APC", "--source", "Mary",
             "-k", "2", "--measure", "reachprob"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        # Mary's papers split evenly between the two conferences.
        assert "0.500000" in lines[0]


class TestServeBatchMeasures:
    def test_at_suffix_routes_one_query(self, graph_file, capsys):
        code = main(
            ["serve-batch", graph_file,
             "--queries", "Tom:APC", "Mary:APC@pcrw", "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Tom | APC:" in out
        assert "Mary | APC:" in out
        assert "0.500000" in out  # pcrw's even split for Mary

    def test_default_measure_flag_applies_to_all(self, graph_file, capsys):
        code = main(
            ["serve-batch", graph_file, "--measure", "pcrw",
             "--queries", "Mary:APC", "-k", "2"]
        )
        assert code == 0
        assert "0.500000" in capsys.readouterr().out

    def test_bad_item_with_empty_measure_exits_nonzero(
        self, graph_file, capsys
    ):
        code = main(
            ["serve-batch", graph_file, "--queries", "Tom:APC@"]
        )
        assert code == 2
        assert "SOURCE:PATH[@MEASURE]" in capsys.readouterr().err

    def test_unknown_suffix_measure_exits_nonzero(
        self, graph_file, capsys
    ):
        code = main(
            ["serve-batch", graph_file, "--queries", "Tom:APC@nope"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_combined_query_in_batch(self, graph_file, capsys):
        code = main(
            ["serve-batch", graph_file,
             "--queries", "Tom:APC=0.7,APCPAPC=0.3@combined", "-k", "2"]
        )
        assert code == 0
        assert "Tom | APC=0.7,APCPAPC=0.3:" in capsys.readouterr().out
