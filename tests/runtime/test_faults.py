"""Unit tests for the deterministic fault-injection harness."""

import time

import pytest

from repro.core.backend import materialise
from repro.hin.errors import InjectedFaultError, QueryError
from repro.runtime.faults import (
    SITE_EXECUTOR_STEP,
    SITE_STORE_READ,
    SITE_STORE_WRITE,
    FaultPlan,
    FaultSpec,
    ambient_faults,
)
from repro.runtime.limits import execution_scope


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(QueryError):
            FaultSpec("executor.nope", 0, "fail")

    def test_unknown_action_rejected(self):
        with pytest.raises(QueryError):
            FaultSpec(SITE_EXECUTOR_STEP, 0, "explode")

    def test_negative_occurrence_rejected(self):
        with pytest.raises(QueryError):
            FaultSpec(SITE_EXECUTOR_STEP, -1, "fail")

    def test_negative_delay_rejected(self):
        with pytest.raises(QueryError):
            FaultSpec(SITE_EXECUTOR_STEP, 0, "delay", delay_s=-0.1)


class TestFaultPlan:
    def test_occurrence_counters_advance_per_site(self):
        plan = FaultPlan()
        plan.fire(SITE_EXECUTOR_STEP)
        plan.fire(SITE_EXECUTOR_STEP)
        plan.filter(SITE_STORE_READ, b"payload")
        assert plan.occurrences(SITE_EXECUTOR_STEP) == 2
        assert plan.occurrences(SITE_STORE_READ) == 1
        assert plan.occurrences(SITE_STORE_WRITE) == 0

    def test_fail_fires_at_exact_occurrence(self):
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 2, "fail")])
        plan.fire(SITE_EXECUTOR_STEP)
        plan.fire(SITE_EXECUTOR_STEP)
        with pytest.raises(InjectedFaultError) as excinfo:
            plan.fire(SITE_EXECUTOR_STEP)
        assert excinfo.value.site == SITE_EXECUTOR_STEP
        assert excinfo.value.occurrence == 2
        assert plan.fired == [(SITE_EXECUTOR_STEP, 2, "fail")]

    def test_transient_fail_raises_oserror(self):
        plan = FaultPlan(
            [FaultSpec(SITE_STORE_READ, 0, "fail", transient=True)]
        )
        with pytest.raises(OSError):
            plan.filter(SITE_STORE_READ, b"payload")

    def test_delay_sleeps(self):
        plan = FaultPlan(
            [FaultSpec(SITE_EXECUTOR_STEP, 0, "delay", delay_s=0.02)]
        )
        started = time.perf_counter()
        plan.fire(SITE_EXECUTOR_STEP)
        assert time.perf_counter() - started >= 0.015
        assert plan.fired == [(SITE_EXECUTOR_STEP, 0, "delay")]

    def test_corrupt_transforms_payload(self):
        plan = FaultPlan([FaultSpec(SITE_STORE_READ, 0, "corrupt")])
        corrupted = plan.filter(SITE_STORE_READ, b"abc")
        assert corrupted != b"abc"
        assert len(corrupted) == 3
        # Subsequent occurrences pass through untouched.
        assert plan.filter(SITE_STORE_READ, b"abc") == b"abc"

    def test_corrupt_of_empty_payload_is_not_a_noop(self):
        plan = FaultPlan([FaultSpec(SITE_STORE_WRITE, 0, "corrupt")])
        assert plan.filter(SITE_STORE_WRITE, b"") != b""

    def test_corrupt_at_payloadless_site_degenerates_to_fail(self):
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 0, "corrupt")])
        with pytest.raises(InjectedFaultError):
            plan.fire(SITE_EXECUTOR_STEP)

    def test_reset_rewinds_counters_and_log(self):
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 0, "fail")])
        with pytest.raises(InjectedFaultError):
            plan.fire(SITE_EXECUTOR_STEP)
        plan.reset()
        assert plan.occurrences(SITE_EXECUTOR_STEP) == 0
        assert plan.fired == []
        with pytest.raises(InjectedFaultError):
            plan.fire(SITE_EXECUTOR_STEP)  # fires again after reset

    def test_sample_is_seed_deterministic(self):
        first = FaultPlan.sample(seed=7, n_faults=4)
        second = FaultPlan.sample(seed=7, n_faults=4)
        assert first.specs == second.specs
        different = FaultPlan.sample(seed=8, n_faults=4)
        assert first.specs != different.specs

    def test_sample_respects_sites_and_actions(self):
        plan = FaultPlan.sample(
            seed=0,
            n_faults=6,
            sites=(SITE_STORE_READ,),
            actions=("delay",),
            max_occurrence=3,
        )
        for spec in plan.specs:
            assert spec.site == SITE_STORE_READ
            assert spec.action == "delay"
            assert 0 <= spec.occurrence < 3


class TestAmbientWiring:
    def test_ambient_faults_reads_scope(self):
        assert ambient_faults() is None
        plan = FaultPlan()
        with execution_scope(faults=plan):
            assert ambient_faults() is plan
        assert ambient_faults() is None

    def test_backend_fires_executor_site(self, fig4):
        path = fig4.schema.path("APCPA")
        plan = FaultPlan([FaultSpec(SITE_EXECUTOR_STEP, 0, "fail")])
        with execution_scope(faults=plan):
            with pytest.raises(InjectedFaultError) as excinfo:
                materialise(fig4, path)
        assert excinfo.value.site == SITE_EXECUTOR_STEP
        assert plan.fired == [(SITE_EXECUTOR_STEP, 0, "fail")]

    def test_backend_counts_every_step(self, fig4, traced):
        path = fig4.schema.path("APCPA")
        plan = FaultPlan()
        with execution_scope(faults=plan):
            materialise(fig4, path)
        steps = traced.roots[-1].attributes["steps"]
        assert plan.occurrences(SITE_EXECUTOR_STEP) == steps == 3
