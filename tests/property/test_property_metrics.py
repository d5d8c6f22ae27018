"""Property-based tests for the evaluation metrics."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.learning.auc import auc_score
from repro.learning.nmi import normalized_mutual_information
from repro.learning.rankdiff import average_rank_difference


@st.composite
def labelings(draw):
    n = draw(st.integers(2, 40))
    a = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    b = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return a, b


@st.composite
def binary_problems(draw):
    n = draw(st.integers(2, 50))
    labels = draw(
        st.lists(st.integers(0, 1), min_size=n, max_size=n)
    )
    assume(0 < sum(labels) < n)
    scores = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return labels, scores


class TestNmiProperties:
    @given(labelings())
    @settings(max_examples=100, deadline=None)
    def test_range(self, pair):
        a, b = pair
        nmi = normalized_mutual_information(a, b)
        assert -1e-9 <= nmi <= 1 + 1e-9

    @given(labelings())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, pair):
        a, b = pair
        assert normalized_mutual_information(a, b) == pytest.approx(
            normalized_mutual_information(b, a), abs=1e-10
        )

    @given(st.lists(st.integers(0, 4), min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_self_nmi_is_one(self, labels):
        assert normalized_mutual_information(labels, labels) == pytest.approx(
            1.0
        )

    @given(labelings(), st.permutations(range(5)))
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_label_permutation(self, pair, permutation):
        a, b = pair
        permuted = [permutation[x] for x in b]
        assert normalized_mutual_information(a, b) == pytest.approx(
            normalized_mutual_information(a, permuted), abs=1e-10
        )


class TestAucProperties:
    @given(binary_problems())
    @settings(max_examples=100, deadline=None)
    def test_range(self, problem):
        labels, scores = problem
        assert 0 <= auc_score(labels, scores) <= 1

    @given(binary_problems())
    @settings(max_examples=100, deadline=None)
    def test_flipping_scores_flips_auc(self, problem):
        labels, scores = problem
        direct = auc_score(labels, scores)
        flipped = auc_score(labels, [-s for s in scores])
        assert direct + flipped == pytest.approx(1.0, abs=1e-9)

    @given(binary_problems())
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariant(self, problem):
        labels, scores = problem
        # Multiplying by a power of two is exact in binary floating
        # point, so the transform is strictly monotone with no new ties.
        transformed = [4.0 * s for s in scores]
        assert auc_score(labels, scores) == pytest.approx(
            auc_score(labels, transformed), abs=1e-9
        )


class TestRankDiffProperties:
    @given(st.permutations(list("abcdefgh")))
    @settings(max_examples=100, deadline=None)
    def test_identity_is_zero(self, ranking):
        assert average_rank_difference(list(ranking), list(ranking)) == 0.0

    @given(st.permutations(list("abcdefgh")), st.permutations(list("abcdefgh")))
    @settings(max_examples=100, deadline=None)
    def test_non_negative(self, ground, measured):
        assert average_rank_difference(list(ground), list(measured)) >= 0.0

    @given(st.permutations(list("abcdefgh")), st.permutations(list("abcdefgh")))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_for_full_permutations(self, ground, measured):
        """With identical item sets, the displacement sum is symmetric."""
        forward = average_rank_difference(list(ground), list(measured))
        backward = average_rank_difference(list(measured), list(ground))
        assert forward == pytest.approx(backward)
