"""Integration tests: every experiment runs and reproduces the paper's
qualitative shapes (see DESIGN.md, 'Expected shapes')."""

import pytest

from repro.experiments.registry import all_experiments, get_experiment
from repro.hin.errors import QueryError


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (seed 0) and cache the results."""
    return {
        experiment_id: get_experiment(experiment_id)(seed=0)
        for experiment_id in all_experiments()
    }


class TestRegistry:
    def test_all_experiments_registered(self):
        assert all_experiments() == [
            "citations", "complexity", "fig5", "fig6", "fig7",
            "measures", "robustness",
            "table1", "table2", "table3", "table4", "table5", "table6",
            "table7",
        ]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(QueryError):
            get_experiment("table99")

    def test_every_result_has_text_and_data(self, results):
        for experiment_id, result in results.items():
            assert result.experiment_id == experiment_id
            assert result.title
            assert result.text
            assert result.data


class TestTable1Shape:
    def test_home_conference_first(self, results):
        profiles = results["table1"].data["profiles"]
        assert profiles["APVC"][0][0] == "KDD"

    def test_data_conferences_follow(self, results):
        top5 = [key for key, _ in results["table1"].data["profiles"]["APVC"]]
        assert set(top5[1:]) <= {"SIGMOD", "VLDB", "WWW", "CIKM", "SIGIR"}

    def test_signature_terms_surface(self, results):
        from repro.datasets.acm import HUB_TERMS

        terms = [key for key, _ in results["table1"].data["profiles"]["APT"]]
        assert set(terms) <= set(HUB_TERMS)

    def test_database_subject_first(self, results):
        subjects = results["table1"].data["profiles"]["APS"]
        assert subjects[0][0].startswith("H.2")

    def test_self_tops_coauthors_with_score_one(self, results):
        coauthors = results["table1"].data["profiles"]["APA"]
        author = results["table1"].data["author"]
        assert coauthors[0][0] == author
        assert coauthors[0][1] == pytest.approx(1.0)

    def test_students_among_top_coauthors(self, results):
        coauthors = [k for k, _ in results["table1"].data["profiles"]["APA"]]
        assert any(k.startswith("student-") for k in coauthors[1:])


class TestTable2Shape:
    def test_conference_similar_to_itself(self, results):
        similar = results["table2"].data["profiles"]["CVPAPVC"]
        assert similar[0][0] == "KDD"
        assert similar[0][1] == pytest.approx(1.0)

    def test_similar_conferences_share_data_area(self, results):
        similar = [k for k, _ in results["table2"].data["profiles"]["CVPAPVC"]]
        assert set(similar[1:]) <= {"SIGMOD", "VLDB", "WWW", "CIKM", "SIGIR"}

    def test_top_author_is_heavy_kdd_publisher(self, results):
        authors = [k for k, _ in results["table2"].data["profiles"]["CVPA"]]
        assert authors[0] == "KDD-star"

    def test_subjects_database_first(self, results):
        subjects = results["table2"].data["profiles"]["CVPS"]
        assert subjects[0][0].startswith("H.2")


class TestTable3Shape:
    def test_hetesim_symmetric_across_directions(self, results):
        for record in results["table3"].data["records"]:
            assert record["hetesim"] == pytest.approx(
                record["hetesim_reverse"], abs=1e-12
            )

    def test_influential_scores_similar(self, results):
        stars = [
            r["hetesim"]
            for r in results["table3"].data["records"]
            if r["role"] == "influential"
        ]
        assert max(stars) / min(stars) < 2.0

    def test_young_scores_lower_but_nonzero(self, results):
        records = results["table3"].data["records"]
        min_star = min(
            r["hetesim"] for r in records if r["role"] == "influential"
        )
        for record in records:
            if record["role"] == "young":
                assert 0 < record["hetesim"] < min_star

    def test_pcrw_directions_conflict_for_young(self, results):
        """Young authors top the forward column yet trail backward."""
        records = results["table3"].data["records"]
        young = [r for r in records if r["role"] == "young"]
        stars = [r for r in records if r["role"] == "influential"]
        assert all(
            y["pcrw_apvc"] >= max(s["pcrw_apvc"] for s in stars)
            for y in young
        )
        assert all(
            y["pcrw_cvpa"] <= max(s["pcrw_cvpa"] for s in stars)
            for y in young
        )


class TestTable4Shape:
    def test_hetesim_and_pathsim_self_first(self, results):
        data = results["table4"].data
        assert data["hetesim"][0][0] == data["author"]
        assert data["hetesim"][0][1] == pytest.approx(1.0)
        assert data["pathsim"][0][0] == data["author"]
        assert data["pathsim"][0][1] == pytest.approx(1.0)

    def test_pcrw_violates_self_maximum(self, results):
        data = results["table4"].data
        assert data["pcrw"][0][0] != data["author"]
        assert data["pcrw_self_rank"] > 1

    def test_hetesim_prefers_distribution_peers(self, results):
        top = [k for k, _ in results["table4"].data["hetesim"][1:4]]
        assert "peer-author-1" in top and "peer-author-2" in top

    def test_pathsim_prefers_high_volume_authors(self, results):
        top = [k for k, _ in results["table4"].data["pathsim"][1:8]]
        assert any(k.startswith("broad-author") or k.startswith("kdd-senior")
                   for k in top)

    def test_pcrw_tops_broad_authors(self, results):
        top2 = [k for k, _ in results["table4"].data["pcrw"][:2]]
        assert set(top2) == {"broad-author-1", "broad-author-2"}


class TestTable5Shape:
    def test_nine_conferences(self, results):
        assert len(results["table5"].data["records"]) == 9

    def test_hetesim_wins_on_most(self, results):
        assert results["table5"].data["wins"] >= 8

    def test_auc_well_above_chance(self, results):
        for record in results["table5"].data["records"]:
            assert record["hetesim"] > 0.7
            assert record["pcrw"] > 0.7


class TestTable6Shape:
    def test_three_tasks(self, results):
        assert set(results["table6"].data["records"]) == {
            "venue", "author", "paper",
        }

    def test_hetesim_at_least_pathsim_on_authors_and_papers(self, results):
        records = results["table6"].data["records"]
        assert records["author"]["hetesim"] >= records["author"]["pathsim"] - 1e-9
        assert records["paper"]["hetesim"] >= records["paper"]["pathsim"]

    def test_paper_clustering_is_hardest(self, results):
        records = results["table6"].data["records"]
        assert records["paper"]["hetesim"] < records["venue"]["hetesim"]
        assert records["paper"]["hetesim"] < records["author"]["hetesim"]

    def test_venue_clustering_near_perfect(self, results):
        records = results["table6"].data["records"]
        assert records["venue"]["hetesim"] > 0.9


class TestTable7Shape:
    def test_group_author_jumps_under_coauthor_path(self, results):
        data = results["table7"].data
        assert data["group_rank_cvpapa"] < data["group_rank_cvpa"]
        assert data["group_rank_cvpapa"] <= 3

    def test_heavy_publisher_tops_cvpa(self, results):
        assert results["table7"].data["cvpa"][0][0] == "KDD-star"


class TestFig5Shape:
    def test_raw_matrix_matches_paper(self, results):
        import numpy as np

        raw = np.asarray(results["fig5"].data["raw"])
        expected = np.array(
            [
                [1 / 2, 1 / 4, 0.0, 0.0],
                [0.0, 1 / 6, 1 / 3, 1 / 6],
                [0.0, 0.0, 0.0, 1 / 2],
            ]
        )
        np.testing.assert_allclose(raw, expected)

    def test_normalisation_fixes_self_relatedness(self, results):
        data = results["fig5"].data
        assert data["raw_self_below_one"] > 0
        assert data["normalized_self_below_one"] == 0

    def test_a2_raw_self_is_one_third(self, results):
        """The paper's headline complaint: raw(a2, a2) = 0.33."""
        assert results["fig5"].data["raw_a2_self"] == pytest.approx(1 / 3)


class TestFig6Shape:
    def test_fourteen_conferences(self, results):
        assert len(results["fig6"].data["records"]) == 14

    def test_hetesim_lower_on_most(self, results):
        assert results["fig6"].data["wins"] >= 10


class TestFig7Shape:
    def test_distributions_sum_to_one(self, results):
        for author, dist in results["fig7"].data["distributions"].items():
            assert sum(dist) == pytest.approx(1.0, abs=1e-9), author

    def test_peers_closest_to_hub(self, results):
        cosines = results["fig7"].data["cosines_to_hub"]
        peer_best = max(cosines["peer-author-1"], cosines["peer-author-2"])
        broad_best = max(
            cosines["broad-author-1"], cosines["broad-author-2"]
        )
        assert peer_best > broad_best


class TestRobustnessShape:
    def test_three_signal_levels(self, results):
        assert len(results["robustness"].data["records"]) == 3

    def test_auc_ordering_noise_stable(self, results):
        assert results["robustness"].data["auc_stable"]

    def test_quality_degrades_with_signal(self, results):
        records = results["robustness"].data["records"]
        by_signal = sorted(records, key=lambda r: r["signal"])
        assert by_signal[0]["auc_hetesim"] < by_signal[-1]["auc_hetesim"]


class TestCitationsShape:
    def test_symmetry_across_citation_directions(self, results):
        assert results["citations"].data["symmetry_error"] < 1e-10

    def test_three_rankings_reported(self, results):
        assert len(results["citations"].data["rankings"]) == 3

    def test_citation_semantics_differ_from_copublication(self, results):
        rankings = results["citations"].data["rankings"]
        citing = [k for k, _ in rankings["citing"]]
        copub = [k for k, _ in rankings["co-publication (APVCVPA)"]]
        assert citing != copub


class TestComplexityShape:
    def test_simrank_grows_faster(self, results):
        scaling = results["complexity"].data["scaling"]
        ratios = [row["ratio"] for row in scaling]
        assert ratios[-1] > ratios[0]

    def test_materialisation_speeds_up_queries(self, results):
        material = results["complexity"].data["materialization"]
        assert material["warm_s"] < material["cold_s"]


class TestMeasuresShape:
    def test_every_registered_measure_ranked(self, results):
        from repro.core.measures import available_measures

        rankings = results["measures"].data["rankings"]
        assert set(rankings) == set(available_measures())

    def test_hetesim_and_pathsim_rank_query_author_first(self, results):
        data = results["measures"].data
        for name in ("hetesim", "pathsim"):
            assert data["rankings"][name][0][0] == data["author"]

    def test_pcrw_violates_self_maximum(self, results):
        data = results["measures"].data
        assert data["rankings"]["pcrw"][0][0] != data["author"]

    def test_reachprob_matches_pcrw(self, results):
        rankings = results["measures"].data["rankings"]
        assert rankings["reachprob"] == rankings["pcrw"]

    def test_hetesim_overlap_is_reference(self, results):
        assert results["measures"].data["overlaps"]["hetesim"] == 10


class TestReportIsCurrent:
    def test_every_non_timing_line_matches_experiments_md(self, results):
        """EXPERIMENTS.md is what the report generator renders from
        these (seed 0) results, except the measured line of the timed
        section."""
        from pathlib import Path

        from repro.experiments.report import TIMED_SECTION, render_report

        committed = (
            Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
        ).read_text(encoding="utf-8").splitlines()
        rendered = render_report(results, seed=0).splitlines()
        assert len(rendered) == len(committed)
        timed_header = f"## {results[TIMED_SECTION].title}"
        section = None
        for number, (new, old) in enumerate(zip(rendered, committed), 1):
            if new.startswith("## "):
                section = new
            if section == timed_header and new.startswith("**Measured"):
                continue
            assert new == old, f"EXPERIMENTS.md line {number} is stale"
