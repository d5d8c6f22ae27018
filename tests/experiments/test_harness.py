"""Tests for the harness plumbing: shared data, the report generator,
and the registry's significance annotations."""

import pytest

from repro.experiments import data as shared_data
from repro.experiments.registry import get_experiment
from repro.experiments.report import generate_report


class TestSharedData:
    def test_networks_memoised_per_seed(self):
        assert shared_data.acm(0) is shared_data.acm(0)
        assert shared_data.dblp(0) is shared_data.dblp(0)

    def test_different_seeds_different_networks(self):
        assert shared_data.acm(0) is not shared_data.acm(1)

    def test_engine_shares_network(self):
        network, engine = shared_data.acm_engine(0)
        assert engine.graph is network.graph
        # Same tuple on repeat calls (warm caches preserved).
        assert shared_data.acm_engine(0)[1] is engine


class TestReport:
    @pytest.fixture(scope="class")
    def report(self):
        return generate_report(seed=0)

    def test_covers_every_table_and_figure(self, report):
        for token in (
            "Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
            "Table 6", "Table 7", "Fig. 5", "Fig. 6", "Fig. 7",
            "complexity",
        ):
            assert token in report, f"report missing {token}"

    def test_paper_and_measured_lines_paired(self, report):
        assert report.count("**Paper") == report.count("**Measured")

    def test_mentions_substitution_policy(self, report):
        assert "synthetic" in report
        assert "DESIGN.md" in report

    def test_seed_recorded(self):
        assert "seed 3" in generate_report(seed=3)


class TestSignificanceAnnotations:
    def test_table5_reports_sign_test(self):
        result = get_experiment("table5")(seed=0)
        assert 0 <= result.data["sign_test_p"] <= 1
        assert "sign test" in result.text

    def test_fig6_reports_sign_test(self):
        result = get_experiment("fig6")(seed=0)
        assert 0 <= result.data["sign_test_p"] <= 1

    def test_table5_unanimity_is_significant(self):
        result = get_experiment("table5")(seed=0)
        if result.data["wins"] == 9:
            assert result.data["sign_test_p"] < 0.05
