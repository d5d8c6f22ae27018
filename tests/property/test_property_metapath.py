"""Property-based tests for meta-path algebra."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.schemas import acm_schema

SCHEMA = acm_schema()

#: Adjacency of the ACM schema's type graph (by code), both directions.
_NEIGHBOR_CODES = {
    "A": ["P", "F"],
    "P": ["A", "V", "T", "S"],
    "V": ["P", "C"],
    "C": ["V"],
    "T": ["P"],
    "S": ["P"],
    "F": ["A"],
}


@st.composite
def acm_paths(draw):
    """A random valid path over the ACM schema, length 1..6."""
    length = draw(st.integers(1, 6))
    code = draw(st.sampled_from(sorted(_NEIGHBOR_CODES)))
    codes = [code]
    for _ in range(length):
        code = draw(st.sampled_from(_NEIGHBOR_CODES[code]))
        codes.append(code)
    return SCHEMA.path("".join(codes))


class TestPathAlgebra:
    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_reverse_is_involution(self, path):
        assert path.reverse().reverse() == path

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_reverse_swaps_endpoints(self, path):
        reverse = path.reverse()
        assert reverse.source_type == path.target_type
        assert reverse.target_type == path.source_type
        assert reverse.length == path.length

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_code_roundtrips_through_parser(self, path):
        assert SCHEMA.path(path.code()) == path

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_symmetric_iff_equal_to_reverse(self, path):
        assert path.is_symmetric == (path == path.reverse())

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_concat_with_reverse_is_symmetric(self, path):
        roundtrip = path.concat(path.reverse())
        assert roundtrip.is_symmetric
        assert roundtrip.length == 2 * path.length

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_halves_reassemble(self, path):
        halves = path.halves()
        if halves.needs_edge_object:
            assert path.length % 2 == 1
            parts = (halves.left.length if halves.left else 0) + 1 + (
                halves.right.length if halves.right else 0
            )
            assert parts == path.length
        else:
            assert path.length % 2 == 0
            assert halves.left.concat(halves.right) == path

    @given(acm_paths())
    @settings(max_examples=100, deadline=None)
    def test_node_types_consistent_with_length(self, path):
        assert len(path.node_types) == path.length + 1

    @given(acm_paths(), st.integers(1, 3))
    @settings(max_examples=50, deadline=None)
    def test_repeat_length(self, path, times):
        if path.source_type != path.target_type:
            with pytest.raises(Exception):
                path.repeat(2)
        else:
            assert path.repeat(times).length == times * path.length
