"""Weighted multi-path HeteSim through the ``combined`` measure.

``score(s, t) = sum_i w_i * HeteSim(s, t | P_i)`` (Section 5.1, option
3).  These cases pin the combination's contract on the
:class:`~repro.core.measures.combined.CombinedMeasure` plugin.
"""

import numpy as np
import pytest

from repro.core.engine import HeteSimEngine
from repro.core.measures import get_measure, parse_combined_spec
from repro.hin.errors import QueryError


@pytest.fixture()
def engine(fig4):
    return HeteSimEngine(fig4)


@pytest.fixture()
def combined():
    return get_measure("combined")


class TestConstruction:
    def test_weights_normalised(self, engine):
        components = parse_combined_spec(
            engine.measures, {"APC": 2.0, "APAPC": 2.0}
        )
        assert {meta.code(): w for meta, w in components} == {
            "APC": 0.5,
            "APAPC": 0.5,
        }

    def test_endpoint_types_exposed(self, engine, combined):
        shape = combined.resolve(engine.measures, {"APC": 1.0})
        assert shape.source_type == "author"
        assert shape.target_type == "conference"

    def test_empty_rejected(self, engine, combined):
        with pytest.raises(QueryError):
            combined.resolve(engine.measures, {})

    def test_negative_weight_rejected(self, engine, combined):
        with pytest.raises(QueryError):
            combined.resolve(engine.measures, {"APC": -1.0})

    def test_all_zero_weights_rejected(self, engine, combined):
        with pytest.raises(QueryError):
            combined.resolve(engine.measures, {"APC": 0.0, "APAPC": 0.0})

    def test_mismatched_endpoints_rejected(self, engine, combined):
        with pytest.raises(QueryError):
            combined.resolve(engine.measures, {"APC": 1.0, "APA": 1.0})


class TestMeasure:
    def test_single_path_equals_plain_hetesim(self, engine, combined):
        score = combined.pair(engine.measures, {"APC": 3.0}, "Tom", "KDD")
        assert score == engine.relevance("Tom", "KDD", "APC")

    def test_combination_is_weighted_average(self, engine, combined):
        spec = {"APC": 0.25, "APAPC": 0.75}
        expected = 0.25 * engine.relevance(
            "Tom", "SIGMOD", "APC"
        ) + 0.75 * engine.relevance("Tom", "SIGMOD", "APAPC")
        assert combined.pair(
            engine.measures, spec, "Tom", "SIGMOD"
        ) == pytest.approx(expected)

    def test_matrix_matches_pairs(self, engine, combined, fig4):
        spec = {"APC": 0.5, "APAPC": 0.5}
        matrix = combined.matrix(engine.measures, spec)
        for i, author in enumerate(fig4.node_keys("author")):
            for j, conference in enumerate(fig4.node_keys("conference")):
                assert matrix[i, j] == pytest.approx(
                    combined.pair(engine.measures, spec, author, conference),
                    abs=1e-12,
                )

    def test_vector_matches_matrix_row(self, engine, combined, fig4):
        spec = {"APC": 0.5, "APAPC": 0.5}
        matrix = combined.matrix(engine.measures, spec)
        tom = fig4.node_index("author", "Tom")
        np.testing.assert_allclose(
            combined.vector(engine.measures, spec, "Tom"),
            matrix[tom],
            atol=1e-12,
        )

    def test_scores_stay_in_unit_interval(self, engine, combined):
        matrix = combined.matrix(engine.measures, {"APC": 1.0, "APAPC": 2.0})
        assert (matrix >= -1e-12).all() and (matrix <= 1 + 1e-9).all()

    def test_combination_blends_semantics(self, engine, combined):
        """APC alone says Tom-SIGMOD = 0; adding the co-author path makes
        the combined score positive but below Tom-KDD."""
        spec = {"APC": 0.5, "APAPC": 0.5}
        sigmod = combined.pair(engine.measures, spec, "Tom", "SIGMOD")
        kdd = combined.pair(engine.measures, spec, "Tom", "KDD")
        assert 0 < sigmod < kdd


class TestTopK:
    def test_ranking(self, engine, combined):
        ranking = combined.top_k(
            engine.measures, {"APC": 0.5, "APAPC": 0.5}, "Tom", k=2
        )
        assert ranking[0][0] == "KDD"
        assert ranking[0][1] > ranking[1][1] > 0

    def test_bad_k(self, engine, combined):
        # k clamps like a slice instead of raising.
        spec = {"APC": 1.0}
        assert combined.top_k(engine.measures, spec, "Tom", k=0) == []
        assert combined.top_k(engine.measures, spec, "Tom", k=-3) == []
        assert combined.top_k(
            engine.measures, spec, "Tom", k=99
        ) == combined.rank(engine.measures, spec, "Tom")
