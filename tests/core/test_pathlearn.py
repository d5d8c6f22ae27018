"""Unit tests for supervised path-weight learning (Section 5.1)."""

import pytest

from repro.core.engine import HeteSimEngine
from repro.core.measures import get_measure, parse_combined_spec
from repro.core.pathlearn import PathWeightResult, learn_path_weights
from repro.hin.errors import PathError, QueryError


@pytest.fixture()
def engine(fig4):
    return HeteSimEngine(fig4)


def direct_publication_labels(fig4):
    """Unambiguous labels matching the APC semantics: the positives are
    the all-papers-in-one-conference pairs (APC score 1) and the
    negatives the no-direct-publication pairs (APC score 0).  Mary, who
    splits her papers between the two conferences, is excluded so the
    labels are exactly realisable by the APC feature alone -- the
    co-author path APAPC is a strictly worse explanation."""
    return [
        ("Tom", "KDD", 1),
        ("Tom", "SIGMOD", 0),
        ("Jim", "SIGMOD", 1),
        ("Jim", "KDD", 0),
    ]


class TestLearning:
    def test_informative_path_gets_the_weight(self, engine, fig4):
        pairs = direct_publication_labels(fig4)
        result = learn_path_weights(engine, ["APC", "APAPC"], pairs)
        assert result.best_path() == "APC"
        assert result.weights["APC"] > result.weights["APAPC"]

    def test_weights_normalised(self, engine, fig4):
        pairs = direct_publication_labels(fig4)
        result = learn_path_weights(engine, ["APC", "APAPC"], pairs)
        assert sum(result.weights.values()) == pytest.approx(1.0)
        assert all(w >= 0 for w in result.weights.values())

    def test_residual_reported(self, engine, fig4):
        pairs = direct_publication_labels(fig4)
        result = learn_path_weights(engine, ["APC"], pairs)
        assert result.residual >= 0

    def test_all_zero_labels_fall_back_to_uniform(self, engine):
        pairs = [("Tom", "SIGMOD", 0), ("Jim", "KDD", 0)]
        result = learn_path_weights(engine, ["APC", "APAPC"], pairs)
        assert result.weights == {"APC": 0.5, "APAPC": 0.5}

    def test_as_measure_round_trip(self, engine, fig4):
        pairs = direct_publication_labels(fig4)
        result = learn_path_weights(engine, ["APC", "APAPC"], pairs)
        combined = get_measure("combined")

        def score(s, t):
            return combined.pair(engine.measures, result.spec, s, t)

        # The learned measure must separate the labelled classes on
        # average.
        positives = [score(s, t) for s, t, label in pairs if label == 1]
        negatives = [score(s, t) for s, t, label in pairs if label == 0]
        assert sum(positives) / len(positives) > sum(negatives) / len(
            negatives
        )

    def test_as_measure_drops_zero_weight_paths(self, engine, fig4):
        pairs = direct_publication_labels(fig4)
        result = learn_path_weights(engine, ["APC", "APAPC"], pairs)
        components = parse_combined_spec(engine.measures, result.spec)
        assert [meta.code() for meta, _ in components] == [
            code for code, weight in result.weights.items() if weight > 0
        ]
        for meta, weight in components:
            assert weight == pytest.approx(result.weights[meta.code()])
        zero = PathWeightResult(
            weights={"APC": 1.0, "APAPC": 0.0},
            raw_weights={"APC": 2.0, "APAPC": 0.0},
            residual=0.0,
        )
        assert zero.spec == "APC=1.0"


class TestValidation:
    def test_no_paths_rejected(self, engine):
        with pytest.raises(QueryError):
            learn_path_weights(engine, [], [("Tom", "KDD", 1)])

    def test_no_pairs_rejected(self, engine):
        with pytest.raises(QueryError):
            learn_path_weights(engine, ["APC"], [])

    def test_non_binary_label_rejected(self, engine):
        with pytest.raises(QueryError):
            learn_path_weights(engine, ["APC"], [("Tom", "KDD", 2)])

    def test_mismatched_candidate_paths_rejected(self, engine):
        with pytest.raises(PathError):
            learn_path_weights(
                engine, ["APC", "APA"], [("Tom", "KDD", 1)]
            )

    def test_unknown_pair_objects_rejected(self, engine):
        with pytest.raises(QueryError):
            learn_path_weights(engine, ["APC"], [("ghost", "KDD", 1)])
