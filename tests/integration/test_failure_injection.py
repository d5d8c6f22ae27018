"""Failure-injection tests: corrupted inputs fail loudly and precisely.

A production library's error behaviour is part of its contract: corrupted
files, truncated stores, and mid-stream mutations must surface as typed
errors (never silent wrong answers) with actionable messages.
"""

import json

import pytest

from repro.core.cache import PathMatrixCache
from repro.core.engine import HeteSimEngine
from repro.core.store import MatrixStore
from repro.hin.errors import GraphError, ReproError
from repro.hin.io import load_graph, save_graph


class TestCorruptedGraphFiles:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_graph(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_graph(tmp_path / "absent.json")

    def test_wrong_version_field(self, fig4, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(fig4, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["format_version"] = "banana"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(GraphError):
            load_graph(path)

    def test_edge_referencing_unknown_relation(self, fig4, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(fig4, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["edges"]["reviews"] = [["Tom", "p1", 1.0]]
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ReproError):
            load_graph(path)

    def test_negative_weight_rejected_on_load(self, fig4, tmp_path):
        path = tmp_path / "graph.json"
        save_graph(fig4, path)
        data = json.loads(path.read_text(encoding="utf-8"))
        data["edges"]["writes"][0][2] = -3.0
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(GraphError):
            load_graph(path)


class TestCorruptedMatrixStore:
    def test_index_pointing_at_missing_file(self, fig4, tmp_path):
        store = MatrixStore(tmp_path)
        path = fig4.schema.path("APC")
        store.save(fig4, [path])
        # Delete the payload but keep the index entry.
        for npz in tmp_path.glob("*.npz"):
            npz.unlink()
        with pytest.raises(FileNotFoundError):
            store.load(path)

    def test_corrupted_index_json(self, fig4, tmp_path):
        store = MatrixStore(tmp_path)
        store.save(fig4, [fig4.schema.path("APC")])
        (tmp_path / "index.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            store.stored_paths()

    def test_load_into_wrong_schema_graph(self, fig4, fig5, tmp_path):
        """A store built on one schema cannot silently load into a graph
        whose schema lacks the stored relations."""
        store = MatrixStore(tmp_path)
        store.save(fig4, [fig4.schema.path("APC")])
        cache = PathMatrixCache(fig5)
        with pytest.raises(ReproError):
            store.load_into(cache)


class TestCliErrorPaths:
    def test_missing_graph_file(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(FileNotFoundError):
            main(
                ["query", str(tmp_path / "nope.json"), "--path", "APC",
                 "--source", "a", "--target", "b"]
            )


class TestMutationDuringUse:
    def test_engine_never_serves_stale_scores(self, fig4):
        """Interleaved mutation and querying always reflects the latest
        graph (the version-counter contract)."""
        engine = HeteSimEngine(fig4)
        assert engine.relevance("Jim", "KDD", "APC") == 0.0
        fig4.add_edge("writes", "Jim", "p1")  # p1 is in KDD
        assert engine.relevance("Jim", "KDD", "APC") > 0.0
        fig4.add_edge("published_in", "p5", "KDD")
        fig4.add_edge("writes", "Jim", "p5")
        second = engine.relevance("Jim", "KDD", "APC")
        assert second > 0.0

    def test_pathsim_sees_latest_adjacency(self, fig4):
        from repro.baselines.pathsim import pathsim_pair

        path = fig4.schema.path("APA")
        before = pathsim_pair(fig4, path, "Tom", "Jim")
        assert before == 0.0
        fig4.add_edge("writes", "Jim", "p1")
        after = pathsim_pair(fig4, path, "Tom", "Jim")
        assert after > 0.0


class TestInjectedRuntimeFaults:
    """Deterministic FaultPlan-driven faults in the executor and store."""

    def test_executor_step_failure_mid_chain(self, fig4):
        from repro.runtime.faults import (
            SITE_EXECUTOR_STEP,
            FaultPlan,
            FaultSpec,
        )
        from repro.runtime.limits import execution_scope
        from repro.core.backend import materialise
        from repro.hin.errors import InjectedFaultError

        path = fig4.schema.path("APCPA")
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 1, "fail")])
        with execution_scope(faults=plan):
            with pytest.raises(InjectedFaultError) as excinfo:
                materialise(fig4, path)
        assert excinfo.value.site == SITE_EXECUTOR_STEP
        assert excinfo.value.occurrence == 1
        assert plan.fired == [(SITE_EXECUTOR_STEP, 1, "fail")]

    def test_failed_chain_does_not_poison_the_cache(self, fig4):
        """A crash mid-materialisation leaves the engine able to answer
        the same query correctly afterwards."""
        from repro.runtime.faults import (
            SITE_EXECUTOR_STEP,
            FaultPlan,
            FaultSpec,
        )
        from repro.runtime.limits import execution_scope
        from repro.hin.errors import InjectedFaultError

        expected = HeteSimEngine(fig4).relevance("Tom", "Tom", "APCPA")
        engine = HeteSimEngine(fig4)
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 0, "fail")])
        with execution_scope(faults=plan):
            with pytest.raises(InjectedFaultError):
                engine.relevance("Tom", "Tom", "APCPA")
        assert engine.relevance("Tom", "Tom", "APCPA") == pytest.approx(
            expected
        )

    def test_deadline_breach_on_long_path_degrades_with_provenance(
        self, fig4
    ):
        from repro.runtime.limits import ExecutionLimits
        from repro.runtime.resilience import DegradedResult

        runtime = HeteSimEngine(fig4).runtime(
            ExecutionLimits(deadline_ms=0)
        )
        result = runtime.relevance("Tom", "Tom", "APCPA")
        assert isinstance(result, DegradedResult)
        assert result.degraded
        assert result.tripped == "deadline"
        assert result.attempts[0].strategy == "exact"
        assert result.attempts[0].error == "DeadlineExceededError"
        assert result.attempts[-1].succeeded

    def test_deadline_breach_fail_mode_raises_exact_type(self, fig4):
        from repro.hin.errors import DeadlineExceededError
        from repro.runtime.limits import ExecutionLimits

        runtime = HeteSimEngine(fig4).runtime(
            ExecutionLimits(deadline_ms=0), on_limit="fail"
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            runtime.relevance("Tom", "Tom", "APCPA")
        assert excinfo.value.limit == "deadline"

    def test_checksum_mismatch_on_disk_is_integrity_error(
        self, fig4, tmp_path
    ):
        from repro.hin.errors import StoreIntegrityError

        store = MatrixStore(tmp_path)
        path = fig4.schema.path("APC")
        store.save(fig4, [path])
        npz = next(tmp_path.glob("*.npz"))
        payload = bytearray(npz.read_bytes())
        payload[0] ^= 0xFF
        npz.write_bytes(bytes(payload))
        with pytest.raises(StoreIntegrityError) as excinfo:
            store.load(path)
        assert "checksum mismatch" in str(excinfo.value)

    def test_injected_corrupt_read_is_caught_by_checksum(
        self, fig4, tmp_path
    ):
        """Corruption injected into the read path (not the disk) is also
        detected: verification covers the whole IO pipeline."""
        from repro.hin.errors import StoreIntegrityError
        from repro.runtime.faults import (
            SITE_STORE_READ,
            FaultPlan,
            FaultSpec,
        )
        from repro.runtime.limits import execution_scope

        store = MatrixStore(tmp_path)
        path = fig4.schema.path("APC")
        store.save(fig4, [path])
        plan = FaultPlan([FaultSpec(SITE_STORE_READ, 0, "corrupt")])
        with execution_scope(faults=plan):
            with pytest.raises(StoreIntegrityError):
                store.load(path)
        assert plan.fired == [(SITE_STORE_READ, 0, "corrupt")]
        # Outside the fault scope the same store loads cleanly.
        reloaded = store.load(path)
        assert reloaded.nnz > 0
